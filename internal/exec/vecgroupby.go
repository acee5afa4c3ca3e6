package exec

import (
	"unsafe"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// evalGroupByVec is the aggregation sink: it folds the tuples of its source
// into one groupTable per grouping set and emits the groups as column chunks.
// Where the tuples come from is the source's business (groupSource): the
// child's own chunks, or — the dominant shape of the paper's star-schema
// aggregations — the scan or star join of a SELECT child fused away.
//
// Group and argument vectors are computed once per chunk and shared across all
// grouping sets, and per-worker partials merge in chunk order, so first-seen
// group order, each group's representative values, and (serially) even float
// SUM accumulation order are identical to the row path.
//
// A nil relation declines to the row path, which raises its own errors for
// the shapes refused here.
func (ev *evaluator) evalGroupByVec(b *qgm.Box) (*relation, error) {
	if len(b.Quantifiers) != 1 || b.Quantifiers[0].Kind != qgm.ForEach {
		ev.decline(declGroupShape)
		return nil, nil
	}
	q := b.Quantifiers[0]
	aggSpecs, bad := aggSpecsOf(b)
	if bad >= 0 {
		ev.decline(declNonAggOutput)
		return nil, nil
	}
	nGroup := len(b.GroupBy)

	// The sink's expressions: grouping columns, then aggregate arguments (nil
	// for COUNT(*)). Each must range over the box's single child quantifier;
	// correlation and nested aggregates go to the row path.
	exprs := make([]qgm.Expr, nGroup+len(aggSpecs))
	for pos, col := range b.GroupBy {
		exprs[pos] = b.Cols[col].Expr
	}
	for ai, spec := range aggSpecs {
		if !spec.agg.Star {
			exprs[nGroup+ai] = spec.agg.Arg
		}
	}
	for _, e := range exprs {
		if e != nil && !exprOverQuant(e, q.ID, nil) {
			ev.decline(declBeyondChild)
			return nil, nil
		}
	}
	s, cols, err := ev.groupSource(b, q, exprs)
	if err == nil {
		err = s.open()
	}
	if err != nil {
		return nil, err
	}
	groupCols, argCols := cols[:nGroup], cols[nGroup:]

	sets := b.GroupingSets
	if len(sets) == 0 {
		sets = [][]int{allInts(nGroup)}
	}

	// One aggregation pass over the chunks computes every grouping set:
	// group/argument vectors are evaluated once per chunk, then each set
	// accumulates into its own groupTable. Each set sees the rows in order and
	// partials merge chunk-major, which keeps every per-set ordering identical
	// to the row path's set-major-over-all-rows order.
	workers := ev.workersFor(s.total)
	partials := make([][]*groupTable, workers)
	err = ev.parallelChunks(len(s.chunks), workers, func(w, lo, hi int, chg *charger) error {
		sw := s.worker()
		tables := make([]*groupTable, len(sets))
		for si := range tables {
			tables[si] = newGroupTable(len(sets[si]), aggSpecs)
		}
		var ordinals [stripRows]uint32 // the strip's ordinals and hashes stay on this stack
		var hashes [stripRows]uint64
		var few [4]keyCol // the key scratch of up to four grouping columns stays on this stack too
		keys := few[:min(nGroup, len(few))]
		if nGroup > len(few) {
			keys = make([]keyCol, nGroup)
		}
		accums := make([]vecAccum, len(aggSpecs))
		for _, c := range s.chunks[lo:hi] {
			n, err := sw.next(c, chg)
			if err != nil {
				return err
			}
			if n == 0 {
				continue
			}
			for pos := range groupCols {
				if keys[pos].vec, err = sw.eval(&groupCols[pos]); err != nil {
					return err
				}
			}
			// Kind dispatch per chunk, not per row: each aggregate's
			// accumulator is re-aimed at this chunk's argument vector.
			for ai := range argCols {
				var av *sqltypes.Vec
				if !aggSpecs[ai].agg.Star {
					if av, err = sw.eval(&argCols[ai]); err != nil {
						return err
					}
				}
				accums[ai].bind(&aggSpecs[ai], av)
			}
			// The per-input-row budget charge, batched per chunk (same totals
			// as the row path's per-row charge).
			if err := chg.checkpoint(n); err != nil {
				return err
			}
			// A strip of rows at a time: the grouping vectors are normalised
			// into key cells once, for all sets; per set one call turns rows
			// into ordinals, then one aggregate at a time folds over
			// (ordinals, argument vector) into the state cells. Each group still
			// sees its rows in order, so float SUMs add up as on the row path.
			for at := 0; at < n; at += stripRows {
				ords := ordinals[:min(stripRows, n-at)]
				for pos := range keys {
					keys[pos].load(keys[pos].vec, at, len(ords))
				}
				for si, gs := range sets {
					t := tables[si]
					t.findBatch(keys, gs, hashes[:len(ords)], ords, true)
					for ai := range accums {
						if err := accums[ai].fold(t, ai, at, ords, len(gs) == 0, hashes[:len(ords)]); err != nil {
							return err
						}
					}
				}
			}
		}
		partials[w] = tables
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge workers' per-set partials in chunk order, then emit set by set
	// into column chunks sized by the total group count.
	merged := partials[0]
	w := storage.Writer{Cols: len(b.Cols)}
	for si := range sets {
		for _, p := range partials[1:] {
			if err := merged[si].mergeFrom(p[si], aggSpecs); err != nil {
				return nil, err
			}
		}
		w.Left += merged[si].n
	}
	for si, gs := range sets {
		if err := ev.emitGroups(b, aggSpecs, gs, merged[si], w.Add); err != nil {
			return nil, err
		}
	}
	ev.obsv.Add(CtrVecBoxes, 1)
	ev.usedVector = true
	return chunkRelation(w.Seal()), nil
}

// groupSource plans where a GROUP BY's tuples come from. A child that is a
// duplicate-preserving SELECT is fused away when its own source plans: its
// output expressions substitute into the sink's, its predicates and joins
// become the source's, and it is neither materialized nor memoized (in the
// workloads' plans a GROUP BY's select child has no other consumer). Any other
// child — a base table, a DISTINCT or declining SELECT, another GROUP BY —
// is read as it evaluates through the normal box machinery, which cannot
// decline here: one quantifier, no predicates, expressions checked by the
// caller.
func (ev *evaluator) groupSource(b *qgm.Box, q *qgm.Quantifier, exprs []qgm.Expr) (*source, []srcCol, error) {
	if child := q.Box; child.Kind == qgm.SelectBox && !child.Distinct {
		s, reason, err := ev.planSource(child)
		if err != nil {
			return nil, nil, err
		}
		if reason == "" {
			// Replace each reference to the child's column c with the child's
			// expression for c (expressions are immutable, so sharing is
			// fine). A reference that cannot be replaced stays, and cols
			// declines it as beyond the child's own quantifiers.
			fused := make([]qgm.Expr, len(exprs))
			for i, e := range exprs {
				fused[i] = qgm.MapExpr(e, func(x qgm.Expr) qgm.Expr {
					cr, isRef := x.(*qgm.ColRef)
					if !isRef || cr.Q == nil || cr.Q.ID != q.ID || cr.Col < 0 || cr.Col >= len(child.Cols) || child.Cols[cr.Col].Expr == nil {
						return x
					}
					return child.Cols[cr.Col].Expr
				})
			}
			if cols, reason := s.cols(fused); reason == "" {
				return s, cols, nil
			}
		}
	}
	s, _, err := ev.planSource(b)
	if err != nil {
		return nil, nil, err
	}
	cols, _ := s.cols(exprs)
	return s, cols, nil
}

// vecAccum folds one aggregate's argument vector into a table's state cells.
// bind re-aims it at a chunk's vector and picks fold's loop once per chunk, so
// kind dispatch is not per row; what the typed loops do not cover goes through
// update. One per aggregate per worker: no closure is built per chunk.
type vecAccum struct {
	spec  *aggSpec
	av    *sqltypes.Vec
	mode  accumMode
	nulls bool
	d     *pairStrip // made by the first bind of a DISTINCT aggregate
}

// pairStrip is a DISTINCT aggregate's strip: group ordinals, pair keys and ordinals.
type pairStrip struct {
	ords  sqltypes.Vec
	keys  [2]keyCol
	pords []uint32
}

type accumMode uint8

const (
	accStar accumMode = iota
	accBoxed
	accDistinct
	accCount
	accInt   // sum/min/max over an int payload
	accFloat // sum/min/max over a float payload
)

func (a *vecAccum) bind(spec *aggSpec, av *sqltypes.Vec) {
	a.spec, a.av, a.mode, a.nulls = spec, av, accBoxed, av != nil && av.HasNulls()
	switch {
	case spec.agg.Star:
		a.mode = accStar
	case spec.agg.Distinct:
		a.mode = accDistinct
		if a.d == nil {
			a.d = new(pairStrip)
		}
	case av.Generic():
	case spec.op == opCount:
		a.mode = accCount
	case av.Kind() == sqltypes.KindInt:
		a.mode = accInt
	case av.Kind() == sqltypes.KindFloat:
		a.mode = accFloat
	}
}

// fold adds a strip of the chunk's elements into aggregate ai of t: element
// at+i goes to group ords[i]. The mode picks the loop, once per strip. When
// the strip is one group's (one: the empty grouping set), COUNT adds once and
// a typed SUM/MIN/MAX runs in a register, loading and storing the cell once;
// the values still combine in row order, so the bits are the row path's. hash
// is scratch as long as the strip.
func (a *vecAccum) fold(t *groupTable, ai, at int, ords []uint32, one bool, hash []uint64) error {
	av, n := a.av, len(ords)
	switch a.mode {
	case accStar, accCount:
		if one && !a.nulls {
			t.aggs.at(int(ords[0]))[ai] += int64(n)
			return nil
		}
		for i, g := range ords {
			if a.mode == accStar || !av.IsNull(at+i) {
				t.aggs.at(int(g))[ai]++
			}
		}
	case accInt:
		return foldTyped(a, t, ai, at, ords, one, av.Ints()[at:at+n], sqltypes.KindInt)
	case accFloat:
		return foldTyped(a, t, ai, at, ords, one, av.Floats()[at:at+n], sqltypes.KindFloat)
	case accBoxed:
		for i, g := range ords {
			if err := t.update(t.aggs.at(int(g)), ai, a.spec, av.Value(at+i)); err != nil {
				return err
			}
		}
	case accDistinct:
		// One inserting findBatch gives each row its (group, argument) pair's
		// ordinal; a row whose ordinal is the next new one is its value's first
		// appearance in its group, and counts or folds. Rows are taken in order,
		// so a group's values fold in first-appearance order whatever the strips.
		d, p := a.d, t.pairs[ai]
		if p.nk == 2 {
			words := d.ords.RefillInts(sqltypes.KindInt, n)
			for i, g := range ords {
				words[i] = int64(g)
			}
			d.keys[0].load(&d.ords, 0, n)
		}
		d.keys[1].load(av, at, n)
		d.pords = resize(d.pords, n)
		next := uint32(p.n)
		p.findBatch(d.keys[:], pairCols[2-p.nk:], hash, d.pords, true)
		for i, po := range d.pords {
			if po == next {
				next++
				if err := t.update(t.aggs.at(int(ords[i])), ai, a.spec, av.Value(at+i)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// pairCols are a pair table's key columns in a pairStrip's keys: the group
// ordinal, then the argument; the empty grouping set's uses the argument alone.
var pairCols = []int{0, 1}

// foldTyped is fold's loop over a strip xs of an int or float payload of
// kind kind. A state of that kind is its payload's bits in the word (an int
// as it is, a float's IEEE bits), read and written by bit-cast; a state of
// another kind takes update.
func foldTyped[T int64 | float64](a *vecAccum, t *groupTable, ai, at int, ords []uint32, one bool, xs []T, kind sqltypes.Kind) error {
	op, rec := a.spec.op, t.aggs.at(int(ords[0]))
	if k := t.kindOf(rec, ai); one && (k == kind || k == sqltypes.KindNull) {
		acc, have := bitcast[int64, T](rec[ai]), k == kind
		for i, x := range xs {
			switch {
			case a.nulls && a.av.IsNull(at+i):
			case have:
				acc = combine(op, acc, x)
			default:
				acc, have = x, true
			}
		}
		if have {
			rec[ai] = bitcast[T, int64](acc)
			t.setKind(rec, ai, kind)
		}
		return nil
	}
	for i, x := range xs {
		if a.nulls && a.av.IsNull(at+i) {
			continue
		}
		switch rec := t.aggs.at(int(ords[i])); t.kindOf(rec, ai) {
		case kind:
			rec[ai] = bitcast[T, int64](combine(op, bitcast[int64, T](rec[ai]), x))
		case sqltypes.KindNull:
			rec[ai] = bitcast[T, int64](x)
			t.setKind(rec, ai, kind)
		default:
			if err := t.update(rec, ai, a.spec, a.av.Value(at+i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// bitcast reinterprets the eight bytes of x as a To: math.Float64bits and
// its inverse, and the identity on an int64.
func bitcast[From, To int64 | float64](x From) To { return *(*To)(unsafe.Pointer(&x)) }

// combine is SUM, MIN or MAX of a running value and an input of one numeric
// type. The strict comparisons keep the running value on ties and NaNs, as
// Compare's do.
func combine[T int64 | float64](op aggOp, acc, x T) T {
	switch {
	case op == opSum:
		return acc + x
	case op == opMin && x < acc, op == opMax && x > acc:
		return x
	}
	return acc
}
