package exec

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
)

// aggSpec is one aggregate output column of a GROUP BY box.
type aggSpec struct {
	agg *qgm.Agg
	col int
	op  aggOp
}

// aggSpecsOf lists the box's aggregate columns; bad is the index of a
// non-grouping output column that is not an aggregate (COUNT, SUM, MIN or
// MAX), or -1.
func aggSpecsOf(b *qgm.Box) (specs []aggSpec, bad int) {
	for i := range b.Cols {
		if b.IsGroupCol(i) {
			continue
		}
		agg, ok := b.Cols[i].Expr.(*qgm.Agg)
		var op aggOp
		if ok {
			op, ok = aggOps[agg.Op]
		}
		if !ok {
			return nil, i
		}
		specs = append(specs, aggSpec{agg: agg, col: i, op: op})
	}
	return specs, -1
}

// evalGroupBy evaluates a GROUP BY box as the union of its grouping sets
// (paper §5, Figure 12 semantics): every child row is grouped once per set of
// the canonicalized supergroup, by that set's columns, and each set emits its
// groups with the grouped-out grouping columns NULL. One pass over the rows:
// evaluate the grouping expressions and the aggregate arguments, then per set
// find the row's group and fold the row into it, a one-row strip for the
// pipeline's fold. Groups come out set by set in first-appearance order and
// each group sees its rows in order, which is the order the pipeline
// reproduces.
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
		tables[si] = newGroupTable(len(gs), aggSpecs)
	}

	bd := binding{nil}
	groupVals := make([]sqltypes.Value, len(b.GroupBy)) // this row's grouping values, in GroupBy order
	key := make([]sqltypes.Value, len(b.GroupBy))
	args := make([]sqltypes.Vec, len(aggSpecs)) // this row's aggregate arguments, one-row strips; COUNT(*) has none
	accums := make([]vecAccum, len(aggSpecs))
	hash, ord := [1]uint64{}, [1]uint32{} // the one-row strip's scratch and ordinal
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
			if arg := args[ai].RefillGeneric(1); !spec.agg.Star {
				if arg[0], err = ectx.evalScalar(spec.agg.Arg, bd); err != nil {
					return nil, err
				}
			}
			accums[ai].bind(&aggSpecs[ai], &args[ai])
		}
		for si, gs := range sets {
			for i, pos := range gs {
				key[i] = groupVals[pos]
			}
			ord[0] = uint32(tables[si].find(key[:len(gs)]))
			for ai := range accums {
				if err := accums[ai].fold(tables[si], ai, 0, ord[:], len(gs) == 0, hash[:]); err != nil {
					return nil, err
				}
			}
		}
	}

	var out [][]sqltypes.Value
	slab := rowSlab{width: len(b.Cols)}
	for si, gs := range sets {
		slab.reserve(tables[si].n)
		out = slices.Grow(out, tables[si].n)
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

// emitGroups hands emit grouping set gs's output rows, one per group of t in
// first-appearance order: grouping columns rebuilt from the group's cells
// (NULL when grouped out of the set), aggregate columns from its state cells.
// The row is scratch, overwritten for the next group; emit copies what it
// keeps.
func (ev *evaluator) emitGroups(b *qgm.Box, specs []aggSpec, gs []int, t *groupTable, emit func(row []sqltypes.Value)) error {
	row := make([]sqltypes.Value, len(b.Cols)) // grouped-out columns stay NULL
	for g := 0; g < t.n; g++ {
		if err := ev.checkpoint(1); err != nil {
			return err
		}
		for i, pos := range gs {
			row[b.GroupBy[pos]] = t.value(g, i)
		}
		rec := t.aggs.at(g)
		for ai := range specs {
			row[specs[ai].col] = t.result(rec, ai, &specs[ai])
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

// aggOp is an aggregate's operator, decoded once per box.
type aggOp uint8

const (
	opCount aggOp = iota
	opSum
	opMin
	opMax
)

var aggOps = map[string]aggOp{"count": opCount, "sum": opSum, "min": opMin, "max": opMax}

// A group's aggregate states are cells, one per aggregate in the group's
// record of aggs: a word, and a kind code among the codes that follow the
// words, eight to a word. COUNT — DISTINCT or not — keeps its counter in the
// word. SUM, MIN and MAX keep their running value: the code is its kind
// (KindNull until the first non-NULL input) and the word its payload — an
// integer, date or boolean payload as it is, a float's bits, a string's index
// in strs, where a new extremum overwrites it in place. stateValue rebuilds
// the value as value does a key cell's, and the slab holds no pointers. A
// DISTINCT aggregate folds a value at its first appearance in its group
// (vecAccum.fold); a pairing there that cannot be added or compared poisons
// the cell, and its result is NULL.
const kindPoisoned sqltypes.Kind = 0xf

// kindOf returns the kind code of cell ai of state record rec.
func (t *groupTable) kindOf(rec []int64, ai int) sqltypes.Kind {
	return sqltypes.Kind(rec[t.na+ai/8] >> (uint(ai) % 8 * 8))
}

func (t *groupTable) setKind(rec []int64, ai int, k sqltypes.Kind) {
	w, sh := &rec[t.na+ai/8], uint(ai)%8*8
	*w = int64(uint64(*w)&^(0xff<<sh) | uint64(k)<<sh)
}

// setState makes v, not NULL, the running value of cell ai.
func (t *groupTable) setState(rec []int64, ai int, v sqltypes.Value) {
	switch v.Kind() {
	case sqltypes.KindString:
		if t.kindOf(rec, ai) == sqltypes.KindString {
			t.strs.at(int(rec[ai]))[0] = v.Str()
		} else {
			rec[ai] = t.addStr(v.Str())
		}
	case sqltypes.KindFloat:
		rec[ai] = int64(math.Float64bits(v.Float()))
	default:
		rec[ai] = v.Int()
	}
	t.setKind(rec, ai, v.Kind())
}

// stateValue rebuilds the running value of cell ai: NULL before the first
// input and once poisoned.
func (t *groupTable) stateValue(rec []int64, ai int) sqltypes.Value {
	switch k := t.kindOf(rec, ai); k {
	case sqltypes.KindString:
		return sqltypes.NewString(t.str(rec[ai]))
	case kindPoisoned:
		return sqltypes.Null
	default:
		return sqltypes.FromKeyCell(k, k, rec[ai])
	}
}

// result is aggregate s's answer from its cell ai.
func (t *groupTable) result(rec []int64, ai int, s *aggSpec) sqltypes.Value {
	if s.op == opCount {
		return sqltypes.NewInt(rec[ai])
	}
	return t.stateValue(rec, ai)
}

// update folds one input v into cell ai. COUNT(*) counts the row, COUNT
// counts v unless it is NULL; SUM, MIN and MAX skip NULL, take their first
// value as it is, then add, or keep the lesser or greater under Compare. A sum
// that cannot be added is an error and a failed comparison keeps the state —
// except under DISTINCT, where either poisons the cell.
func (t *groupTable) update(rec []int64, ai int, s *aggSpec, v sqltypes.Value) error {
	switch kind := t.kindOf(rec, ai); {
	case s.agg.Star || s.op == opCount && !v.IsNull():
		rec[ai]++
	case v.IsNull() || s.op == opCount || kind == kindPoisoned:
	case kind == sqltypes.KindNull:
		t.setState(rec, ai, v)
	case s.op == opSum:
		sum, err := sqltypes.Add(t.stateValue(rec, ai), v)
		switch {
		case err == nil:
			t.setState(rec, ai, sum)
		case s.agg.Distinct:
			t.setKind(rec, ai, kindPoisoned)
		default:
			return err
		}
	default:
		switch c, err := sqltypes.Compare(v, t.stateValue(rec, ai)); {
		case err != nil && s.agg.Distinct:
			t.setKind(rec, ai, kindPoisoned)
		case err == nil && (s.op == opMin && c < 0 || s.op == opMax && c > 0):
			t.setState(rec, ai, v)
		}
	}
	return nil
}
