#!/usr/bin/env bash
# Applies three mutations of maintain.Analyze, one at a time, to a copy of the
# working tree and lists the internal/maintain tests each one fails:
#
#   bash experiments/pr47/mutations.sh
#
# A mutation that leaves the file unchanged (its anchor line moved) or that
# fails no test is reported as such, and the script exits 1.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
file=internal/maintain/maintain.go
mutations=(
	'MIN/MAX left unscoped|/case "min", "max":/{n;s|.*|\t\t\t// mutated: MIN/MAX left unscoped|}'
	'the tracker set to a key column|s|^\(\t*\)p\.counterCol = i$|\1p.counterCol = append(p.keyCols, i)[0] // mutated|'
	'rotated lower-box key ordinals|/p\.keyLowerOrds = append(p\.keyLowerOrds,/{n;s|$|\n\t\tif len(p.keyLowerOrds) > 1 { p.keyLowerOrds = append(p.keyLowerOrds[1:], p.keyLowerOrds[0]) } // mutated|}'
)
status=0
for m in "${mutations[@]}"; do
	name=${m%%|*} expr=${m#*|}
	tmp=$(mktemp -d)
	tar --exclude=.git --exclude=.bench_build -cf - . | tar -xf - -C "$tmp"
	sed -i "$expr" "$tmp/$file"
	echo "== $name"
	if cmp -s "$file" "$tmp/$file"; then
		echo "   the mutation did not apply"
		status=1
	else
		diff "$file" "$tmp/$file" | sed 's/^/   /' || true
		failed=$(go test -C "$tmp" ./internal/maintain -count=1 2>&1 | sed -n 's/^--- FAIL: \([^ ]*\).*/\1/p' || true)
		if [[ -z $failed ]]; then
			echo "   no test fails"
			status=1
		else
			echo "$failed" | sed 's/^/   fails /'
		fi
	fi
	rm -rf "$tmp"
done
exit $status
