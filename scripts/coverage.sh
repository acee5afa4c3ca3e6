#!/usr/bin/env bash
# Prints the statements no test runs, per package and in total, from one
# coverage profile of the whole module, and exits 1 when a package leaves more
# statements uncovered than its budget below:
#
#   go test -coverpkg=./... -coverprofile=cover.out ./...
#   bash scripts/coverage.sh cover.out
#
# Without an argument it runs that go test itself (into a temporary file).
# With -coverpkg every test binary reports every block of the module, so a
# block appears once per binary; it counts as covered when any binary ran it.
# The budgets are a ratchet, like sizes.sh's: each is the most its package
# left uncovered in three runs (a few blocks on racy paths vary from run to
# run), lowered as tests reach more and never raised. A package without a
# budget may leave nothing uncovered.
#
# internal/core's budget is the blocks below, which no test reaches, one line
# each for why the block stays:
#   derive.go derive: an aggregate or nil operand; kept so a bug cannot put an aggregate in a SELECT.
#   derive.go mustDerive: the panic of a derivation a feasibility check already made; recovered as a degradation.
#   derive.go addQCL: a pulled-up column named like an earlier one; grouping columns, named by the query, go first.
#   pattern_groupby.go matchGroupBy: a child compensation with two boxes under its lowest GROUP BY (three nested GROUP BYs).
#   pattern_groupby.go matchGBCore: a §5.2 predicate each chosen cuboid derives but the columns they share do not.
#   plancache.go RewriteSQLCached: a statement parser.Template refuses and qgm.BuildSQL accepts (one parser).
#   pullup.go ensureRspace: a value threaded twice through one GROUP BY level; each scalar child is threaded once.
#   pullup.go ensureRspace: a non-constant value; matchSelect pairs only scalar children beside a grouping child.
#   rewrite.go plan: a re-plan with the first splice that matches nothing the first plan matched.
#   rewrite.go verifyRewrite: a plan qgmcheck.Structural refuses, which only a matcher bug builds.
#
# internal/qgm's budget is the blocks below:
#   box.go Child: the panic on a GROUP BY box without exactly one quantifier, which no builder makes.
#   box.go inferType: a ColRef without a quantifier, which qgmcheck's binding rules report instead.
#   box.go inferType, build.go lower, equiv.go ExprEqual, print.go renderExpr: the default arm of a
#     type switch over a sealed expression interface, every kind of which has its own arm.
#   print.go blockShape: a GROUP BY straight over a base table, which neither the builder nor the matcher makes.
#
# internal/exec's budget is the row path, run only as Config.Interpret's reference (ROADMAP item 8
# deletes it): exec.go evalSelect, hashJoin, filter, applicablePreds, hashablePreds and sideQuants,
# groupby.go evalGroupBy's row arm, and expr.go's error arms; and the blocks below:
#   exec.go RunChunks: the final flush's error, for a charge still pending when the root box returns;
#     no test sets a budget that only that charge exceeds.
#   grouptable.go mergeFrom, vecgroupby.go evalGroupByVec: a merge whose fold fails; SUM over dates fails
#     in the worker that adds a group's second date, before any merge.
#   source.go span, planSource: a predicate reading an aggregate or a column beyond its box, which
#     qgmcheck.Structural refuses before a plan runs.
#   source.go compile: a GROUP BY expression other than a column of its fused SELECT child, which computes
#     every expression; compile, onJoined, vector.go compileScalar: a column reference outside its box's
#     range or scope, which a built or matched graph does not hold.
#   vecgroupby.go groupSource: a GROUP BY over a non-SELECT child, which neither the builder nor the matcher makes.
#   vecgroupby.go fold: update's error under DISTINCT, where a failed fold poisons the cell instead.
#   vecgroupby.go foldTyped: a typed strip folding into a state of another kind that Add refuses.
#   vector.go compileCmpFilter: Compare's error per element, on a pairing the type check refuses.
set -euo pipefail
cd "$(dirname "$0")/.."

profile=${1:-}
if [[ -z $profile ]]; then
	profile=$(mktemp)
	trap 'rm -f "$profile"' EXIT
	go test -coverpkg=./... -coverprofile="$profile" ./... >/dev/null
fi

awk '
	FNR == NR { budget[$1] = $2; next }
	FNR == 1 && /^mode:/ { next }
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
		printf "%-40s %9s %7s %7s %7s\n", "package", "uncovered", "budget", "of", "covered"
		for (p in total)
			printf "%-40s %9d %7d %7d %6.1f%%\n", p, unrun[p], budget[p], total[p], 100 * (total[p] - unrun[p]) / total[p] | "sort -k2,2nr -k1,1"
		close("sort -k2,2nr -k1,1")
		printf "%-40s %9d %7s %7d %6.1f%%\n", "total", none, "", all, 100 * (all - none) / all
		for (p in total)
			if (unrun[p] > budget[p]) {
				printf "%s: %d statements uncovered, over its budget of %d\n", p, unrun[p], budget[p] > "/dev/stderr"
				status = 1
			}
		exit status
	}
' - "$profile" <<'BUDGETS'
repro/astdb 25
repro/astdb/driver 49
repro/cmd/astadvisor 3
repro/cmd/astrw 22
repro/cmd/astserve 12
repro/examples/histogram 7
repro/examples/quickstart 7
repro/internal/advisor 5
repro/internal/bench 4
repro/internal/catalog 10
repro/internal/core 11
repro/internal/exec 60
repro/internal/faultinject 1
repro/internal/lint 20
repro/internal/maintain 9
repro/internal/obs 5
repro/internal/parser 4
repro/internal/qgm 7
repro/internal/qgmcheck 19
repro/internal/rcu 1
repro/internal/server 26
repro/internal/sqltypes 17
repro/internal/storage 7
repro/internal/wire 23
repro/internal/workload 1
BUDGETS
