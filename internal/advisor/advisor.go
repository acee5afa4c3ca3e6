// Package advisor implements AST selection — problem (a) of the paper's
// introduction ("finding the best set of ASTs for each workload under space
// and/or update overhead constraints", citing Harinarayan, Rajaraman & Ullman,
// SIGMOD 1996).
//
// It implements the classic HRU greedy algorithm over the cube lattice: the
// views are the 2^n cuboids over a set of dimensions; the cost of answering a
// query grouped on set q from a materialized cuboid v ⊇ q is the size of v
// (linear-scan cost model); the benefit of materializing v is the total cost
// reduction over all cuboids it can answer; greedily pick k views. HRU prove
// this achieves at least (1 - 1/e) ≈ 63% of the optimal benefit.
//
// The package works in two layers: the pure algorithm over abstract lattice
// sizes (Greedy), directly testable against the HRU paper's worked example,
// and a driver (SelectASTs) that measures real cuboid cardinalities on loaded
// data and emits CREATE SUMMARY TABLE definitions for the rewriter.
package advisor

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/qgm"
	"repro/internal/storage"
)

// Lattice is a cube lattice over n dimensions: view v is the bitmask of the
// dimensions it groups by, and Size[v] its row count. The top view (all bits
// set) represents the raw-data granularity and is always available (it is the
// fact table itself in the driver).
type Lattice struct {
	N    int
	Size []int // indexed by bitmask; len == 1<<N
}

// Top returns the full-granularity view mask.
func (l *Lattice) Top() int { return 1<<l.N - 1 }

// Subsumes reports whether view v can answer view q (q's dimensions ⊆ v's).
func Subsumes(v, q int) bool { return q&^v == 0 }

// Selection is the result of the greedy algorithm.
type Selection struct {
	Views    []int // chosen view masks, in pick order (excluding the top view)
	Benefits []int // benefit of each pick at the time it was taken
	// TotalCost is the final sum over all cuboids of the cheapest available
	// answering view's size.
	TotalCost int
}

// Greedy runs HRU greedy selection: pick k views (beyond the always-present
// top view) maximizing benefit at each step.
func Greedy(l *Lattice, k int) *Selection {
	nViews := 1 << l.N
	top := l.Top()

	// cost[q] = size of the cheapest selected view that subsumes q.
	cost := make([]int, nViews)
	for q := 0; q < nViews; q++ {
		cost[q] = l.Size[top]
	}

	sel := &Selection{}
	chosen := map[int]bool{top: true}
	for pick := 0; pick < k; pick++ {
		bestView, bestBenefit := -1, 0
		for v := 0; v < nViews; v++ {
			if chosen[v] {
				continue
			}
			benefit := 0
			for q := 0; q < nViews; q++ {
				if Subsumes(v, q) && l.Size[v] < cost[q] {
					benefit += cost[q] - l.Size[v]
				}
			}
			if benefit > bestBenefit || (benefit == bestBenefit && bestView >= 0 && v < bestView) {
				if benefit > 0 {
					bestView, bestBenefit = v, benefit
				}
			}
		}
		if bestView < 0 {
			break // no remaining view helps
		}
		chosen[bestView] = true
		sel.Views = append(sel.Views, bestView)
		sel.Benefits = append(sel.Benefits, bestBenefit)
		for q := 0; q < nViews; q++ {
			if Subsumes(bestView, q) && l.Size[bestView] < cost[q] {
				cost[q] = l.Size[bestView]
			}
		}
	}
	for q := 0; q < nViews; q++ {
		sel.TotalCost += cost[q]
	}
	return sel
}

// Dimension is one groupable attribute of the fact table (or an expression
// over it, like year(date)).
type Dimension struct {
	Name string // output column name, e.g. "year"
	Expr string // SQL expression, e.g. "year(date)"
}

// Config drives SelectASTs.
type Config struct {
	Fact string      // fact table name
	Dims []Dimension // lattice dimensions (n ≤ 16; sizes are measured for 2^n cuboids)
	Aggs []string    // aggregate output expressions, e.g. "count(*) as cnt"
	K    int         // number of ASTs to pick
}

// Proposal is one recommended AST.
type Proposal struct {
	Mask    int
	Dims    []string
	Rows    int
	Benefit int
	Def     catalog.ASTDef
}

// SelectASTs measures every cuboid's cardinality on the loaded data, runs the
// greedy selection, and returns CREATE SUMMARY TABLE-ready definitions.
func SelectASTs(cfg Config, cat *catalog.Catalog, store *storage.Store) ([]Proposal, *Lattice, error) {
	n := len(cfg.Dims)
	if n == 0 || n > 12 {
		return nil, nil, fmt.Errorf("advisor: dimension count %d out of range [1,12]", n)
	}
	if _, ok := cat.Table(cfg.Fact); !ok {
		return nil, nil, fmt.Errorf("advisor: fact table %q not found", cfg.Fact)
	}
	engine := exec.NewEngine(store)

	l := &Lattice{N: n, Size: make([]int, 1<<n)}
	for mask := 0; mask < 1<<n; mask++ {
		rows, err := cuboidRows(cfg, mask, cat, engine)
		if err != nil {
			return nil, nil, err
		}
		l.Size[mask] = rows
	}
	// The top view answers from the fact table itself: cost is the fact
	// cardinality, not the top cuboid's size.
	if td, ok := store.Table(cfg.Fact); ok {
		l.Size[l.Top()] = td.Cardinality()
	}

	sel := Greedy(l, cfg.K)
	var out []Proposal
	for i, v := range sel.Views {
		p := Proposal{Mask: v, Rows: l.Size[v], Benefit: sel.Benefits[i]}
		for d := 0; d < n; d++ {
			if v&(1<<d) != 0 {
				p.Dims = append(p.Dims, cfg.Dims[d].Name)
			}
		}
		p.Def = catalog.ASTDef{
			Name: proposalName(cfg, v),
			SQL:  cuboidSQL(cfg, v),
		}
		out = append(out, p)
	}
	return out, l, nil
}

func proposalName(cfg Config, mask int) string {
	if mask == 0 {
		return "ast_" + cfg.Fact + "_total"
	}
	var parts []string
	for d := 0; d < len(cfg.Dims); d++ {
		if mask&(1<<d) != 0 {
			parts = append(parts, cfg.Dims[d].Name)
		}
	}
	return "ast_" + cfg.Fact + "_" + strings.Join(parts, "_")
}

// cuboidSQL emits the defining query for a cuboid.
func cuboidSQL(cfg Config, mask int) string {
	var cols, gb []string
	for d := 0; d < len(cfg.Dims); d++ {
		if mask&(1<<d) != 0 {
			cols = append(cols, fmt.Sprintf("%s as %s", cfg.Dims[d].Expr, cfg.Dims[d].Name))
			gb = append(gb, cfg.Dims[d].Expr)
		}
	}
	cols = append(cols, cfg.Aggs...)
	sql := "select " + strings.Join(cols, ", ") + " from " + cfg.Fact
	if len(gb) > 0 {
		sql += " group by " + strings.Join(gb, ", ")
	}
	return sql
}

// cuboidRows measures a cuboid's cardinality (number of groups).
func cuboidRows(cfg Config, mask int, cat *catalog.Catalog, engine *exec.Engine) (int, error) {
	if mask == 0 {
		return 1, nil
	}
	var gb []string
	for d := 0; d < len(cfg.Dims); d++ {
		if mask&(1<<d) != 0 {
			gb = append(gb, cfg.Dims[d].Expr)
		}
	}
	sql := fmt.Sprintf("select count(*) as c from (select %s as x0", gb[0])
	for i := 1; i < len(gb); i++ {
		sql += fmt.Sprintf(", %s as x%d", gb[i], i)
	}
	sql += fmt.Sprintf(" from %s group by %s) g", cfg.Fact, strings.Join(gb, ", "))
	g, err := qgm.BuildSQL(sql, cat)
	if err != nil {
		return 0, fmt.Errorf("advisor: %w", err)
	}
	res, err := engine.Run(g)
	if err != nil {
		return 0, err
	}
	return int(res.Rows[0][0].Int()), nil
}
