#!/usr/bin/env bash
# Non-test Go lines per package directory, the two totals a CHANGES entry
# quotes (everything outside benchmark/, and benchmark/ itself), then the
# line count of each long-lived document. Exits 1 when DESIGN.md or the
# verify skill is longer than its budget below: the budgets are a ratchet,
# lowered as the documents shrink and never raised. Run from anywhere inside
# the repository.
set -euo pipefail
design_budget=1688
skill_budget=346
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
for f in DESIGN.md EXPERIMENTS.md README.md .claude/skills/verify/SKILL.md; do
	printf '%7d  %s\n' "$(wc -l < "$f")" "$f"
done
status=0
while read -r f budget; do
	if (($(wc -l < "$f") > budget)); then
		printf '%s: %d lines, over its budget of %d\n' "$f" "$(wc -l < "$f")" "$budget" >&2
		status=1
	fi
done <<BUDGETS
DESIGN.md $design_budget
.claude/skills/verify/SKILL.md $skill_budget
BUDGETS
exit $status
