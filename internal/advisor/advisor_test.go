package advisor

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/maintain"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/workload"
)

// hruLattice is the worked example from Harinarayan, Rajaraman & Ullman,
// SIGMOD 1996 (Figure 5): dimensions part (p), supplier (s), customer (c)
// with the published view sizes.
func hruLattice() *Lattice {
	l := &Lattice{N: 3, Size: make([]int, 8)}
	const (
		p = 1 << 0
		s = 1 << 1
		c = 1 << 2
	)
	l.Size[p|s|c] = 6_000_000 // psc (top)
	l.Size[p|c] = 6_000_000   // pc
	l.Size[p|s] = 800_000     // ps
	l.Size[s|c] = 6_000_000   // sc
	l.Size[p] = 200_000
	l.Size[s] = 30_000 // paper: 0.01M? uses 30,000 in some versions; benefit ordering is robust
	l.Size[c] = 100_000
	l.Size[0] = 1
	return l
}

// TestGreedyHRUExample: HRU report that with k=2 the greedy picks ps first
// (benefit 4 × 5.2M) then either pc/sc-beating view; the key checkable facts
// are the first pick and monotonically non-increasing benefits.
func TestGreedyHRUExample(t *testing.T) {
	l := hruLattice()
	sel := Greedy(l, 3)
	const ps = 1<<0 | 1<<1
	if len(sel.Views) == 0 || sel.Views[0] != ps {
		t.Fatalf("first greedy pick should be ps (mask %d), got %v", ps, sel.Views)
	}
	// ps answers ps, p, s, (): benefit 4 × (6M − 0.8M).
	if sel.Benefits[0] != 4*(6_000_000-800_000) {
		t.Fatalf("first benefit %d", sel.Benefits[0])
	}
	for i := 1; i < len(sel.Benefits); i++ {
		if sel.Benefits[i] > sel.Benefits[i-1] {
			t.Fatalf("benefits must be non-increasing: %v", sel.Benefits)
		}
	}
}

func TestGreedyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(3)
		l := &Lattice{N: n, Size: make([]int, 1<<n)}
		top := l.Top()
		// Random monotone sizes: subsets are no larger than supersets.
		l.Size[top] = 10000 + rng.Intn(100000)
		for mask := top - 1; mask >= 0; mask-- {
			minSuper := l.Size[top]
			for d := 0; d < n; d++ {
				if mask&(1<<d) == 0 {
					if s := l.Size[mask|1<<d]; s < minSuper {
						minSuper = s
					}
				}
			}
			l.Size[mask] = 1 + rng.Intn(minSuper)
		}

		unaided := l.Size[top] * (1 << n)
		prevCost := unaided
		for k := 0; k <= 1<<n; k++ {
			sel := Greedy(l, k)
			if sel.TotalCost > prevCost {
				t.Fatalf("trial %d: cost increased with k=%d: %d > %d", trial, k, sel.TotalCost, prevCost)
			}
			prevCost = sel.TotalCost
			if len(sel.Views) > k {
				t.Fatalf("picked more than k views")
			}
			for i := 1; i < len(sel.Benefits); i++ {
				if sel.Benefits[i] > sel.Benefits[i-1] {
					t.Fatalf("trial %d: benefits not monotone: %v", trial, sel.Benefits)
				}
			}
		}
		// With unlimited picks, every query should cost its own cuboid size
		// (or cheaper — sizes may tie).
		sel := Greedy(l, 1<<n)
		wantMin := 0
		for q := 0; q < 1<<n; q++ {
			wantMin += l.Size[q]
		}
		if sel.TotalCost > unaided || sel.TotalCost < wantMin {
			t.Fatalf("trial %d: final cost %d outside [%d, %d]", trial, sel.TotalCost, wantMin, unaided)
		}
	}
}

func TestSubsumes(t *testing.T) {
	if !Subsumes(0b111, 0b101) || !Subsumes(0b101, 0b101) || Subsumes(0b001, 0b011) {
		t.Fatal("Subsumes wrong")
	}
}

// TestSelectASTsEndToEnd: measure cuboids on real data, pick ASTs, and verify
// the proposals (a) materialize, (b) actually serve matching queries via the
// rewriter, and (c) keep serving them, maintained incrementally, through three
// insert batches — the advisor → materialise → insert → still served round
// trip of the paper's problems (a)–(c).
func TestSelectASTsEndToEnd(t *testing.T) {
	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: 3000, Seed: 21})
	engine := exec.NewEngine(store)

	cfg := Config{
		Fact: "trans",
		Dims: []Dimension{
			{Name: "flid", Expr: "flid"},
			{Name: "faid", Expr: "faid"},
			{Name: "year", Expr: "year(date)"},
		},
		Aggs: []string{"count(*) as cnt", "sum(qty) as sq"},
		K:    2,
	}
	props, lattice, err := SelectASTs(cfg, cat, store)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) == 0 {
		t.Fatal("no proposals")
	}
	if lattice.Size[lattice.Top()] != 3000 {
		t.Fatalf("top size should be fact cardinality: %d", lattice.Size[lattice.Top()])
	}

	rw := core.NewRewriter(cat, core.Options{})
	m := maintain.New(store)
	var plans []*maintain.Plan
	cuboidQuery := map[string]string{} // proposal → a query grouped on its first dimension
	for _, p := range props {
		ca, err := rw.CompileAST(p.Def)
		if err != nil {
			t.Fatalf("proposal %s: %v", p.Def.Name, err)
		}
		res, err := engine.Run(ca.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != p.Rows {
			t.Fatalf("proposal %s: measured %d rows, materialized %d", p.Def.Name, p.Rows, len(res.Rows))
		}
		store.Put(ca.Table, res.Rows)
		plan := m.Analyze(ca)
		if plan.Strategy != maintain.Incremental {
			t.Fatalf("proposal %s is not maintained incrementally: %s", p.Def.Name, plan.Reason)
		}
		plans = append(plans, plan)
		for _, d := range cfg.Dims {
			if len(p.Dims) > 0 && d.Name == p.Dims[0] {
				cuboidQuery[p.Def.Name] = "select " + d.Expr + " as d0, count(*) as c from trans group by " + d.Expr
			}
		}
	}
	if len(cuboidQuery) == 0 {
		t.Fatal("no proposal has a cuboid query to serve")
	}

	// Each proposal serves its cuboid query, with the base tables' answer.
	served := func(when string) {
		t.Helper()
		for _, plan := range plans {
			q, ok := cuboidQuery[plan.AST.Def.Name]
			if !ok {
				continue
			}
			orig, err := qgm.BuildSQL(q, cat)
			if err != nil {
				t.Fatal(err)
			}
			origRes, err := engine.Run(orig)
			if err != nil {
				t.Fatal(err)
			}
			g, _ := qgm.BuildSQL(q, cat)
			if rw.Rewrite(g, plan.AST) == nil {
				t.Fatalf("%s: proposal %s does not serve its own cuboid query %q", when, plan.AST.Def.Name, q)
			}
			newRes, err := engine.Run(g)
			if err != nil {
				t.Fatal(err)
			}
			if diff := exec.EqualResults(origRes, newRes); diff != "" {
				t.Fatalf("%s: proposal %s wrong: %s", when, plan.AST.Def.Name, diff)
			}
		}
	}
	served("materialised")

	// Each batch repeats loaded rows under new keys, half of them moved to a
	// year no earlier batch had, so it both merges into groups and adds some.
	base, err := store.Scan("trans")
	if err != nil {
		t.Fatal(err)
	}
	for batch := 1; batch <= 3; batch++ {
		rows := make([][]sqltypes.Value, 500)
		for i := range rows {
			k := batch*len(rows) + i
			rows[i] = append([]sqltypes.Value{sqltypes.NewInt(int64(1_000_000 + k))}, base[k%len(base)][1:]...)
			if i%2 == 0 {
				rows[i][4] = sqltypes.NewDate(2000+batch, 1+i%12, 1)
			}
		}
		stats, err := m.ApplyInsert(plans, "trans", rows)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range stats {
			if st.Strategy != maintain.Incremental {
				t.Fatalf("batch %d: %s refreshed by %s, not incrementally", batch, st.AST, st.Strategy)
			}
		}
		served(fmt.Sprintf("after insert batch %d", batch))
	}
}

func TestCuboidSQLShape(t *testing.T) {
	cfg := Config{
		Fact: "trans",
		Dims: []Dimension{{Name: "flid", Expr: "flid"}, {Name: "year", Expr: "year(date)"}},
		Aggs: []string{"count(*) as cnt"},
	}
	sql := cuboidSQL(cfg, 0b11)
	want := "select flid as flid, year(date) as year, count(*) as cnt from trans group by flid, year(date)"
	if sql != want {
		t.Fatalf("cuboidSQL:\n  got  %s\n  want %s", sql, want)
	}
	if cuboidSQL(cfg, 0) != "select count(*) as cnt from trans" {
		t.Fatalf("grand total cuboid: %s", cuboidSQL(cfg, 0))
	}
}
