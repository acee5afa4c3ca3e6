package core

import (
	"strconv"

	"repro/internal/qgm"
)

// deriver rewrites a translated (subsumer-space) expression into an
// expression over the compensation's quantifiers: subtrees that the subsumer
// computes as output columns collapse to references through the
// compensation's subsumer quantifier, rejoin references remap to the
// compensation's rejoin quantifiers, and the remaining operators are
// recomputed in the compensation (§6: "derivation is the reverse operation,
// where pieces of the translated expression are collapsed as they are
// computed along the derivation path").
type deriver struct {
	// eq holds the subsumer-space equivalence classes used when comparing
	// subtrees with subsumer output expressions.
	eq *qgm.Equiv
	// sources are the available subsumer outputs: expr is the subsumer-space
	// expression a column computes, ref the compensation-side reference.
	sources []dsource
	// rejoinMap maps original rejoin quantifier IDs to the compensation's
	// cloned quantifiers over the same child boxes.
	rejoinMap map[int]*qgm.Quantifier
	// leafFirst disables the minimal-QCL preference: subtrees are decomposed
	// before consulting subsumer outputs (ablation; see Options).
	leafFirst bool
}

type dsource struct {
	expr qgm.Expr
	ref  qgm.Expr
}

// errUnderivable reports a failed derivation.
type errUnderivable struct{ expr qgm.Expr }

func (e *errUnderivable) Error() string {
	return e.expr.String() + " is not derivable from the subsumer's outputs"
}

// derive rewrites t (subsumer-space) over the compensation's quantifiers, or
// fails. With the paper's minimal-QCL preference, whole subtrees are matched
// against subsumer outputs top-down, so the derivation referencing the fewest
// subsumer columns wins (§4.1.1: amt derives as value*(1-disc), two columns,
// rather than qty*price*(1-disc), three).
func (d *deriver) derive(t qgm.Expr) (qgm.Expr, error) {
	// Rejoin references always stay rejoin references: mapping them through
	// column-equivalence classes onto subsumer columns would erase the very
	// join predicates that established the equivalence.
	if x, ok := t.(*qgm.ColRef); ok {
		if q, ok := d.rejoinMap[x.Q.ID]; ok {
			return &qgm.ColRef{Q: q, Col: x.Col}, nil
		}
	}
	if !d.leafFirst {
		if ref, ok := d.lookup(t); ok {
			return ref, nil
		}
	}
	switch t.(type) {
	case *qgm.ColRef:
		if d.leafFirst {
			if ref, ok := d.lookup(t); ok {
				return ref, nil
			}
		}
		return nil, &errUnderivable{expr: t}
	case nil, *qgm.Agg:
		// Aggregates are derived by the GROUP BY pattern rules, never by the
		// generic scalar deriver.
		return nil, &errUnderivable{expr: t}
	}
	// Constants stay; every other operator is recomputed over its derived
	// operands.
	return qgm.MapChildren(t, d.derive)
}

// lookup finds a subsumer output column computing t.
func (d *deriver) lookup(t qgm.Expr) (qgm.Expr, bool) {
	for _, s := range d.sources {
		if qgm.ExprEqual(s.expr, t, d.eq) {
			return s.ref, true
		}
	}
	return nil, false
}

// derivable reports whether t can be derived without materializing anything.
func (d *deriver) derivable(t qgm.Expr) bool {
	_, err := d.derive(t)
	return err == nil
}

// mustDerive derives an expression that a feasibility check already derived
// from the same sources. A failure is a matcher bug; safeMatches recovers the
// panic as a degradation.
func (d *deriver) mustDerive(t qgm.Expr) qgm.Expr {
	x, err := d.derive(t)
	if err != nil {
		panic(err)
	}
	return x
}

// subsumerSources builds the deriver sources for a subsumer box consumed via
// quantifier qSub: output column k computes r.Cols[k].Expr (a subsumer-space
// expression) and is referenced as qSub.k. onlyCols restricts the usable
// columns (e.g. grouping columns of a selected cuboid); nil allows all. r is
// a SELECT or GROUP BY box, so every column has an expression.
func subsumerSources(r *qgm.Box, qSub *qgm.Quantifier, onlyCols []int) []dsource {
	var allowed map[int]bool
	if onlyCols != nil {
		allowed = make(map[int]bool, len(onlyCols))
		for _, c := range onlyCols {
			allowed[c] = true
		}
	}
	var out []dsource
	for k, c := range r.Cols {
		if allowed != nil && !allowed[k] {
			continue
		}
		out = append(out, dsource{expr: c.Expr, ref: &qgm.ColRef{Q: qSub, Col: k}})
	}
	return out
}

// cloneRejoins creates compensation quantifiers mirroring the given rejoin
// quantifiers (same child boxes, same kinds) and returns the remapping.
func (m *Matcher) cloneRejoins(rejoins []*qgm.Quantifier) (map[int]*qgm.Quantifier, []*qgm.Quantifier) {
	remap := map[int]*qgm.Quantifier{}
	var clones []*qgm.Quantifier
	for _, q := range rejoins {
		nq := m.newQuant(q.Kind, q.Box, q.Alias)
		remap[q.ID] = nq
		clones = append(clones, nq)
	}
	return remap, clones
}

// addQCL appends (or reuses) an output column computing e on box b, returning
// its ordinal.
func addQCL(b *qgm.Box, name string, e qgm.Expr) int {
	for i, c := range b.Cols {
		if c.Expr != nil && qgm.ExprEqual(c.Expr, e, nil) {
			return i
		}
	}
	if name == "" {
		name = uniqueColName(b, "c")
	} else if b.ColIndex(name) >= 0 {
		name = uniqueColName(b, name)
	}
	b.Cols = append(b.Cols, qgm.QCL{Name: name, Expr: e})
	return len(b.Cols) - 1
}

func uniqueColName(b *qgm.Box, base string) string {
	for i := 0; ; i++ {
		name := base
		if i > 0 || base == "c" {
			name = base + strconv.Itoa(len(b.Cols)+i)
		}
		if b.ColIndex(name) < 0 {
			return name
		}
	}
}
