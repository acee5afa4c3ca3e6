#!/usr/bin/env bash
# Prints the statements no test runs, per package and in total, from one
# coverage profile of the whole module:
#
#   go test -coverpkg=./... -coverprofile=cover.out ./...
#   bash scripts/coverage.sh cover.out
#
# Without an argument it runs that go test itself (into a temporary file).
# With -coverpkg every test binary reports every block of the module, so a
# block appears once per binary; it counts as covered when any binary ran it.
# A report only: it exits 0 whatever the numbers are.
set -euo pipefail
cd "$(dirname "$0")/.."

profile=${1:-}
if [[ -z $profile ]]; then
	profile=$(mktemp)
	trap 'rm -f "$profile"' EXIT
	go test -coverpkg=./... -coverprofile="$profile" ./... >/dev/null
fi

awk '
	NR == 1 && /^mode:/ { next }
	{
		# file.go:startline.col,endline.col statements count
		block = $1; stmts[block] = $2
		if ($3 > 0) covered[block] = 1
	}
	END {
		for (b in stmts) {
			file = b; sub(/:.*/, "", file)
			pkg = file; sub(/\/[^\/]*$/, "", pkg)
			total[pkg] += stmts[b]; all += stmts[b]
			if (!(b in covered)) { unrun[pkg] += stmts[b]; none += stmts[b] }
		}
		printf "%-40s %9s %7s %7s\n", "package", "uncovered", "of", "covered"
		for (p in total)
			printf "%-40s %9d %7d %6.1f%%\n", p, unrun[p], total[p], 100 * (total[p] - unrun[p]) / total[p] | "sort -k2,2nr -k1,1"
		close("sort -k2,2nr -k1,1")
		printf "%-40s %9d %7d %6.1f%%\n", "total", none, all, 100 * (all - none) / all
	}
' "$profile"
