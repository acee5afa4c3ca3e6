package bench

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/qgm"
	"repro/internal/workload"
)

// parityScale is large enough that the fact table crosses the pipeline's
// minimum-rows threshold, so its chunks really are spread over several
// workers (worker counts come from Config.Parallelism, not GOMAXPROCS, so this
// holds on single-core machines too).
const parityScale = 6000

// checkParity runs one plan on the reference (Config.Interpret: the serial
// row path) and on the chunk pipeline at several worker counts, and requires
// identical results each time — same rows in the same order, with tolerance
// only where parallel float-SUM accumulation order already allows divergence.
func checkParity(t *testing.T, eng *exec.Engine, g *qgm.Graph) {
	t.Helper()
	serial, err := eng.RunCtx(context.Background(), g, exec.Config{Interpret: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for _, par := range []int{1, 0, 4} {
		res, err := eng.RunCtx(context.Background(), g, exec.Config{Parallelism: par})
		if err != nil {
			t.Fatalf("vectorized run (par=%d): %v", par, err)
		}
		if diff := exec.EqualResults(serial, res); diff != "" {
			t.Fatalf("vectorized par=%d differs from the reference: %s", par, diff)
		}
		// The engine guarantees more than multiset equality: workers' chunks
		// concatenate in order, so row order must match the reference too.
		for i := range serial.Rows {
			for j := range serial.Rows[i] {
				a, b := serial.Rows[i][j], res.Rows[i][j]
				if a.GroupKey() != b.GroupKey() && !(a.IsNumeric() && b.IsNumeric()) {
					t.Fatalf("vectorized par=%d row %d differs in order from the reference: %v vs %v", par, i, serial.Rows[i], res.Rows[i])
				}
			}
		}
	}
}

// TestSerialParallelParity is the result-parity property test for the chunk
// pipeline: every paper query (original and rewritten against its paired AST)
// must produce the same result at every worker count as the serial reference
// path.
func TestSerialParallelParity(t *testing.T) {
	env := NewEnv(parityScale, core.Options{})
	for name, sql := range ASTDefs {
		env.MustRegisterAST(name, sql)
	}
	for _, p := range pairings {
		p := p
		t.Run(p.Query+"/original", func(t *testing.T) {
			g, err := qgm.BuildSQL(Queries[p.Query], env.Cat)
			if err != nil {
				t.Fatal(err)
			}
			checkParity(t, env.Engine, g)
		})
		if !p.WantMatch {
			continue
		}
		t.Run(p.Query+"/rewritten_"+p.AST, func(t *testing.T) {
			g, err := qgm.BuildSQL(Queries[p.Query], env.Cat)
			if err != nil {
				t.Fatal(err)
			}
			if env.RW.Rewrite(g, env.ASTs[p.AST]) == nil {
				t.Fatalf("%s did not rewrite against %s", p.Query, p.AST)
			}
			checkParity(t, env.Engine, g)
		})
	}
}

// TestSerialParallelParityDS extends the parity property to the TPC-D-style
// suite, both against base tables and routed through the deployed AST set.
func TestSerialParallelParityDS(t *testing.T) {
	env := NewEnv(parityScale, core.Options{})
	var asts []*core.CompiledAST
	for _, d := range workload.DSASTs {
		ca, err := env.RegisterAST(d.Name, d.SQL)
		if err != nil {
			t.Fatal(err)
		}
		asts = append(asts, ca)
	}
	for _, q := range workload.DSQueries {
		q := q
		t.Run(q.Name+"/original", func(t *testing.T) {
			g, err := qgm.BuildSQL(q.SQL, env.Cat)
			if err != nil {
				t.Fatal(err)
			}
			checkParity(t, env.Engine, g)
		})
		t.Run(q.Name+"/routed", func(t *testing.T) {
			g, err := qgm.BuildSQL(q.SQL, env.Cat)
			if err != nil {
				t.Fatal(err)
			}
			env.RW.RewriteBestCostCtx(context.Background(), g, asts, env.Store)
			checkParity(t, env.Engine, g)
		})
	}
}

// TestParallelBudgetAndCancellation: the resilience contract holds with the
// pipeline's workers — MaxRows is charged run-wide through the shared counter
// and context cancellation surfaces as the typed error, at every worker count.
func TestParallelBudgetAndCancellation(t *testing.T) {
	env := NewEnv(parityScale, core.Options{})
	g, err := qgm.BuildSQL(Queries["q1"], env.Cat)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("budget/par=%d", par), func(t *testing.T) {
			_, err := env.Engine.RunCtx(context.Background(), g, exec.Config{MaxRows: 100, Parallelism: par})
			if err == nil {
				t.Fatal("expected budget error")
			}
			if !isBudget(err) {
				t.Fatalf("want ErrBudgetExceeded, got %v", err)
			}
		})
		t.Run(fmt.Sprintf("cancel/par=%d", par), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := env.Engine.RunCtx(ctx, g, exec.Config{Parallelism: par})
			if err == nil {
				t.Fatal("expected cancellation error")
			}
			if !isCanceled(err) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
		})
	}
}

func isBudget(err error) bool   { return errors.Is(err, exec.ErrBudgetExceeded) }
func isCanceled(err error) bool { return errors.Is(err, exec.ErrCanceled) }
