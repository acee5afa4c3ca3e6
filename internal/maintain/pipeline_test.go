package maintain_test

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
)

// TestMaintenanceStaysOnTheChunkPipeline: every graph maintenance runs — the
// materialisation, the deltas over the overlay, the scoped recompute, the full
// refresh — for the benchmark's ten summary tables, and for one whose
// definition joins on a residual predicate, lifts no expression
// (exec.vector.lifted): the scoped recompute's key predicate is a probe, the
// residual predicate filters the joined chunk, and the UPDATE's and DELETE's
// WHERE and SET run on the kernels too (exec.Filter counts a lift on the same
// observer, as a WHERE of OR shows at the end).
func TestMaintenanceStaysOnTheChunkPipeline(t *testing.T) {
	for _, tc := range []struct {
		name string
		defs []catalog.ASTDef
	}{
		{name: "benchmark tables", defs: append(paperDefs("ast1", "ast6", "ast7"), dsDefs()...)},
		{name: "residual join predicate", defs: []catalog.ASTDef{{Name: "st_residual",
			SQL: `select flid, count(*) as cnt, min(price) as lo from trans, loc where flid = lid and qty < lid group by flid`}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New()
			var e *parityEnv
			rng := rand.New(rand.NewSource(7))
			for _, step := range []struct {
				name, ran string // ran: a counter that moves only if the step did its kind of run
				run       func()
			}{
				{"materialise", exec.CtrVecBoxes, func() { e = newParityEnvOf(t, 1500, tc.defs, o) }},
				{"insert", "maintain.delta.rows", func() { e.insertTrans(t, rng, 64) }},
				{"update", "maintain.dml.deltas", func() { e.update(t, "update trans set qty = qty + 1 where tid >= 1000000") }},
				{"delete", "maintain.dml.scoped", func() { e.delete(t, "delete from trans where tid >= 1000000") }},
				{"refresh-full", "maintain.refresh.full", func() {
					for _, p := range e.plans {
						if _, err := e.m.RefreshFull(p); err != nil {
							t.Fatal(err)
						}
					}
				}},
			} {
				ran, lifted := o.Counter(step.ran), o.Counter(exec.CtrVecLifted)
				step.run()
				if o.Counter(step.ran) == ran {
					t.Fatalf("%s: %s did not move", step.name, step.ran)
				}
				if n := o.Counter(exec.CtrVecLifted) - lifted; n != 0 {
					t.Fatalf("%s: %d lifted", step.name, n)
				}
			}
			lifted := o.Counter(exec.CtrVecLifted)
			e.update(t, "update trans set qty = qty + 1 where tid < 0 or qty < 0")
			if o.Counter(exec.CtrVecLifted) != lifted+1 {
				t.Fatal("a DML WHERE the kernels lift went uncounted")
			}
			e.verifyAll(t, tc.name)
		})
	}
}
