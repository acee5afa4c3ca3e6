package exec

import (
	"fmt"
	"slices"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// aggSpec is one aggregate output column of a GROUP BY box.
type aggSpec struct {
	agg *qgm.Agg
	col int
}

// aggSpecsOf lists the box's aggregate columns; bad is the index of a
// non-grouping output column that is not an aggregate, or -1.
func aggSpecsOf(b *qgm.Box) (specs []aggSpec, bad int) {
	for i := range b.Cols {
		if b.IsGroupCol(i) {
			continue
		}
		agg, ok := b.Cols[i].Expr.(*qgm.Agg)
		if !ok {
			return nil, i
		}
		specs = append(specs, aggSpec{agg: agg, col: i})
	}
	return specs, -1
}

// evalGroupBy evaluates a GROUP BY box as the union of its grouping sets
// (paper §5, Figure 12 semantics): every child row is grouped once per set of
// the canonicalized supergroup, by that set's columns, and each set emits its
// groups with the grouped-out grouping columns NULL. One pass over the rows:
// evaluate the grouping expressions and the aggregate arguments, then per set
// find the row's group and accumulate. Groups come out set by set in
// first-appearance order and each group sees its rows in order, which is the
// order the pipeline reproduces.
func (ev *evaluator) evalGroupBy(b *qgm.Box) ([][]sqltypes.Value, error) {
	if len(b.Quantifiers) != 1 || b.Quantifiers[0].Kind != qgm.ForEach {
		return nil, fmt.Errorf("exec: GROUP BY box %s must have one ForEach child", b.Label)
	}
	q := b.Quantifiers[0]
	child, err := ev.evalBox(q.Box)
	if err != nil {
		return nil, err
	}
	ectx := &exprCtx{}
	ectx.setSlot(q.ID, 0)

	aggSpecs, bad := aggSpecsOf(b)
	if bad >= 0 {
		return nil, fmt.Errorf("exec: GROUP BY output column %q is not an aggregate", b.Cols[bad].Name)
	}
	sets := b.GroupingSets
	if len(sets) == 0 {
		sets = [][]int{allInts(len(b.GroupBy))}
	}
	tables := make([]*groupTable, len(sets))
	for si, gs := range sets {
		tables[si] = newGroupTable(len(gs), len(aggSpecs))
	}

	bd := binding{nil}
	groupVals := make([]sqltypes.Value, len(b.GroupBy)) // this row's grouping values, in GroupBy order
	argVals := make([]sqltypes.Value, len(aggSpecs))    // this row's aggregate arguments; COUNT(*) has none
	key := make([]sqltypes.Value, len(b.GroupBy))
	for _, row := range child.rowsOf() {
		bd[0] = row
		if err := ev.checkpoint(1); err != nil {
			return nil, err
		}
		for pos, col := range b.GroupBy {
			if groupVals[pos], err = ectx.evalScalar(b.Cols[col].Expr, bd); err != nil {
				return nil, err
			}
		}
		for ai, spec := range aggSpecs {
			if spec.agg.Star {
				continue
			}
			if argVals[ai], err = ectx.evalScalar(spec.agg.Arg, bd); err != nil {
				return nil, err
			}
		}
		for si, gs := range sets {
			for i, pos := range gs {
				key[i] = groupVals[pos]
			}
			aggs := tables[si].aggs.at(tables[si].find(key[:len(gs)]))
			for ai, spec := range aggSpecs {
				if err := aggs[ai].accumulate(spec.agg, argVals[ai]); err != nil {
					return nil, err
				}
			}
		}
	}

	var out [][]sqltypes.Value
	slab := rowSlab{width: len(b.Cols)}
	for si, gs := range sets {
		n := outRows(tables[si], gs)
		slab.reserve(n)
		out = slices.Grow(out, n)
		err = ev.emitGroups(b, aggSpecs, gs, tables[si], func(row []sqltypes.Value) {
			out = append(out, slab.next())
			copy(out[len(out)-1], row)
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// outRows is how many rows grouping set gs emits from t: one per group, and
// one for a global aggregate (empty grouping set) over empty input, where
// COUNT is 0 and the other aggregates are NULL.
func outRows(t *groupTable, gs []int) int {
	if t.n == 0 && len(gs) == 0 {
		return 1
	}
	return t.n
}

// emitGroups hands emit grouping set gs's output rows, one per group of t in
// first-appearance order: grouping columns rebuilt from the group's cells
// (NULL when grouped out of the set), aggregate columns from its states. The
// row is scratch, overwritten for the next group; emit copies what it keeps.
func (ev *evaluator) emitGroups(b *qgm.Box, specs []aggSpec, gs []int, t *groupTable, emit func(row []sqltypes.Value)) error {
	row := make([]sqltypes.Value, len(b.Cols)) // grouped-out columns stay NULL
	if outRows(t, gs) > t.n {
		var empty aggState // the empty global aggregate
		for _, spec := range specs {
			row[spec.col] = empty.result(spec.agg)
		}
		emit(row)
		return nil
	}
	for g := 0; g < t.n; g++ {
		if err := ev.checkpoint(1); err != nil {
			return err
		}
		for i, pos := range gs {
			row[b.GroupBy[pos]] = t.value(g, i)
		}
		aggs := t.aggs.at(g)
		for ai, spec := range specs {
			row[spec.col] = aggs[ai].result(spec.agg)
		}
		emit(row)
	}
	return nil
}

// rowSlab carves a box's output rows from block allocations instead of one
// allocation per row. Rows are capacity-capped, so appending to one can never
// overwrite its neighbour; they share backing storage, so whoever keeps a
// Result row beyond the run should copy it.
type rowSlab struct {
	width int
	free  []sqltypes.Value
}

// reserve makes room for the next n rows in one block.
func (s *rowSlab) reserve(n int) {
	if need := n * s.width; len(s.free) < need {
		s.free = make([]sqltypes.Value, need)
	}
}

// next returns the next reserved row, all NULL.
func (s *rowSlab) next() []sqltypes.Value {
	row := s.free[:s.width:s.width]
	s.free = s.free[s.width:]
	return row
}

func allInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// aggState accumulates one aggregate within one group. An aggregate uses one
// field: COUNT counts, SUM/MIN/MAX keep the running value in val (NULL until
// the first non-NULL input — inputs are never NULL, so neither is a running
// value), DISTINCT collects its inputs. Kept small because the groupTable
// holds one per group per aggregate.
type aggState struct {
	count    int64
	val      sqltypes.Value
	distinct *distinctSet
}

// distinctSet is a DISTINCT aggregate's inputs: the binary keys
// (sqltypes.AppendBinKeyValue) seen, and for SUM/MIN/MAX the first value of
// each class in first-appearance order, which is the order the result folds
// them in — so the answer depends neither on map order nor on the worker
// count. COUNT needs only the number of keys.
type distinctSet struct {
	seen map[string]struct{}
	vals []sqltypes.Value
}

// addDistinct adds v, whose binary key is key, unless its class is in the set.
func (a *aggState) addDistinct(spec *qgm.Agg, key []byte, v sqltypes.Value) {
	if a.distinct == nil {
		a.distinct = &distinctSet{seen: map[string]struct{}{}}
	}
	if _, ok := a.distinct.seen[string(key)]; !ok {
		a.distinct.seen[string(key)] = struct{}{}
		if spec.Op != "count" {
			a.distinct.vals = append(a.distinct.vals, v)
		}
	}
}

// fold combines a non-NULL value — an input, or a later chunk's partial —
// into the running SUM, MIN or MAX.
func (a *aggState) fold(op string, v sqltypes.Value) error {
	if a.val.IsNull() {
		a.val = v
		return nil
	}
	switch op {
	case "sum":
		s, err := sqltypes.Add(a.val, v)
		if err != nil {
			return err
		}
		a.val = s
	case "min":
		if c, err := sqltypes.Compare(v, a.val); err == nil && c < 0 {
			a.val = v
		}
	case "max":
		if c, err := sqltypes.Compare(v, a.val); err == nil && c > 0 {
			a.val = v
		}
	}
	return nil
}

func (a *aggState) accumulate(spec *qgm.Agg, arg sqltypes.Value) error {
	if spec.Star {
		a.count++
		return nil
	}
	if arg.IsNull() {
		return nil // aggregates skip NULL inputs
	}
	if spec.Distinct {
		var buf [16]byte
		a.addDistinct(spec, sqltypes.AppendBinKeyValue(buf[:0], arg), arg)
		return nil
	}
	switch spec.Op {
	case "count":
		a.count++
	case "sum", "min", "max":
		return a.fold(spec.Op, arg)
	default:
		return fmt.Errorf("exec: unknown aggregate %q", spec.Op)
	}
	return nil
}

// merge folds another chunk's state for the same group into a. This is the
// partial-aggregate combine of parallel aggregation: COUNT adds, SUM adds the
// partial sums, MIN/MAX compare extrema, and DISTINCT adds the other set's
// keys — its values in their order. The other state must come from a later
// chunk (the group keeps the earlier chunk's representative values) and is
// consumed by the merge.
func (a *aggState) merge(spec *qgm.Agg, o *aggState) error {
	if spec.Distinct {
		switch {
		case a.distinct == nil:
			a.distinct = o.distinct
		case o.distinct == nil:
		case spec.Op == "count":
			for k := range o.distinct.seen {
				a.distinct.seen[k] = struct{}{}
			}
		default:
			var buf []byte
			for _, v := range o.distinct.vals {
				buf = sqltypes.AppendBinKeyValue(buf[:0], v)
				a.addDistinct(spec, buf, v)
			}
		}
		return nil
	}
	a.count += o.count // COUNT(*) and COUNT(x) both live here
	if o.val.IsNull() {
		return nil
	}
	return a.fold(spec.Op, o.val)
}

func (a *aggState) result(spec *qgm.Agg) sqltypes.Value {
	switch {
	case spec.Op == "count" && spec.Distinct && a.distinct == nil:
		return sqltypes.NewInt(0)
	case spec.Op == "count" && spec.Distinct:
		return sqltypes.NewInt(int64(len(a.distinct.seen)))
	case spec.Op == "count":
		return sqltypes.NewInt(a.count)
	case spec.Op != "sum" && spec.Op != "min" && spec.Op != "max":
		return sqltypes.Null
	case !spec.Distinct || a.distinct == nil:
		return a.val // NULL when no input was non-NULL
	}
	// SUM/MIN/MAX DISTINCT fold the set here; unlike the running fold, a
	// pairing that cannot be added or compared makes the result NULL.
	var acc sqltypes.Value
	for _, v := range a.distinct.vals {
		if acc.IsNull() {
			acc = v
			continue
		}
		if spec.Op == "sum" {
			s, err := sqltypes.Add(acc, v)
			if err != nil {
				return sqltypes.Null
			}
			acc = s
			continue
		}
		c, err := sqltypes.Compare(v, acc)
		if err != nil {
			return sqltypes.Null
		}
		if (spec.Op == "min" && c < 0) || (spec.Op == "max" && c > 0) {
			acc = v
		}
	}
	return acc
}
