#!/usr/bin/env bash
# Non-test Go lines per package directory, and the two totals a CHANGES entry
# quotes: everything outside benchmark/, and benchmark/ itself. Run from
# anywhere inside the repository.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
git ls-files -- '*.go' | grep -v '_test\.go$' | while read -r f; do
	printf '%s %s\n' "$(dirname "$f")" "$(wc -l < "$f")"
done | awk '
	{ n[$1] += $2; if ($1 ~ /^benchmark(\/|$)/) bench += $2; else rest += $2 }
	END {
		for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d  total outside benchmark/\n%7d  benchmark/\n", rest, bench
	}'
