package qgm

import "repro/internal/sqltypes"

// Clone deep-copies the graph: fresh boxes and quantifiers with identical
// structure, expressions rebuilt with references remapped onto the new
// quantifiers. The copy shares only immutable catalog metadata and the
// statement's Params. Use it to keep an original graph intact across a
// (mutating) rewrite.
func (g *Graph) Clone() *Graph {
	out := g.Bind(nil)
	out.Params = g.Params
	return out
}

// Bind is Clone with the statement's literals replaced: every Const carrying
// a Param becomes a plain Const holding lits[Param.Slot], written as the copy
// is made, and the copy has no Params left. lits must be the literal vector of
// a text with the template g was built from, equal to g's own on every pinned
// slot (without literals there is nothing to bind: a statement that has none
// has no Param constants either); g itself is only read.
func (g *Graph) Bind(lits []sqltypes.Value) *Graph {
	out := NewGraph(g.Cat)
	boxMap := map[int]*Box{}          // old box ID → new box
	quantMap := map[int]*Quantifier{} // old quantifier ID → new quantifier

	// First pass (bottom-up): create boxes and quantifiers.
	for _, b := range g.Boxes() {
		nb := out.NewBox(b.Kind, b.Label)
		nb.Table = b.Table
		nb.Regroup = b.Regroup
		nb.GroupBy = append([]int(nil), b.GroupBy...)
		for _, gs := range b.GroupingSets {
			nb.GroupingSets = append(nb.GroupingSets, append([]int(nil), gs...))
		}
		for _, q := range b.Quantifiers {
			nq := out.NewQuantifier(q.Kind, boxMap[q.Box.ID], q.Alias)
			quantMap[q.ID] = nq
			nb.Quantifiers = append(nb.Quantifiers, nq)
		}
		boxMap[b.ID] = nb
	}

	remap := func(e Expr) Expr {
		return MapExpr(e, func(x Expr) Expr {
			switch c := x.(type) {
			case *ColRef:
				if nq, found := quantMap[c.Q.ID]; found {
					return &ColRef{Q: nq, Col: c.Col}
				}
			case *Const:
				if lits != nil && c.Param != nil {
					return NewConst(lits[c.Param.Slot])
				}
			}
			return x
		})
	}

	// Second pass: rebuild expressions over the new quantifiers.
	for _, b := range g.Boxes() {
		nb := boxMap[b.ID]
		for _, c := range b.Cols {
			nb.Cols = append(nb.Cols, QCL{Name: c.Name, Expr: remap(c.Expr)})
		}
		for _, p := range b.Preds {
			nb.Preds = append(nb.Preds, remap(p))
		}
	}

	out.Root = boxMap[g.Root.ID]
	// Register cloned base boxes so further BaseTableBox calls keep sharing.
	for name, b := range g.baseBoxes {
		if nb, ok := boxMap[b.ID]; ok {
			out.baseBoxes[name] = nb
		}
	}
	return out
}
