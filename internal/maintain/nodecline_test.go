package maintain_test

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
)

// TestMaintenanceStaysOnTheChunkPipeline: every graph maintenance runs for the
// benchmark's ten summary tables — the materialisation, the deltas over the
// overlay, the scoped recompute, the full refresh — runs on the chunk pipeline
// box for box. A declined box would run on the executor's serial reference
// path, which no workload measures. The maintainer's own engine reports a
// decline as exec.vector.declined; the delta engine has no observer, so the
// maintainer counts for it (maintain.exec.declined). Nor does any expression
// of the maintainer's engine lift (exec.vector.lifted): the scoped
// recompute's key predicate is a probe. The second row is a definition that
// does decline, to show both decline counters would say so.
func TestMaintenanceStaysOnTheChunkPipeline(t *testing.T) {
	for _, tc := range []struct {
		name     string
		defs     []catalog.ASTDef
		declines bool
	}{
		{name: "benchmark tables", defs: append(paperDefs("ast1", "ast6", "ast7"), dsDefs()...)},
		{name: "residual join predicate", declines: true, defs: []catalog.ASTDef{{Name: "st_residual",
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
				if n := o.Counter(exec.CtrVecLifted) - lifted; !tc.declines && n != 0 {
					t.Fatalf("%s: %d lifted", step.name, n)
				}
				if own, delta := declined(o); !tc.declines && own+delta != 0 {
					t.Fatalf("%s: %d boxes left the pipeline on the maintainer's engine, %d in delta runs", step.name, own, delta)
				}
			}
			if own, delta := declined(o); tc.declines && (own == 0 || delta == 0) {
				t.Fatalf("a declining definition went uncounted: exec.vector.declined %d, maintain.exec.declined %d", own, delta)
			}
			e.verifyAll(t, tc.name)
		})
	}
}

func declined(o *obs.Observer) (own, delta int64) {
	return o.Counter(exec.CtrVecDeclined), o.Counter("maintain.exec.declined")
}
