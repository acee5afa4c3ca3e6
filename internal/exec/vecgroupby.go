package exec

import (
	"repro/internal/qgm"
	"repro/internal/sqltypes"
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
			tables[si] = newGroupTable(len(sets[si]), len(aggSpecs))
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
				accums[ai].bind(aggSpecs[ai].agg, av)
			}
			// The per-input-row budget charge, batched per chunk (same totals
			// as the row path's per-row charge).
			if err := chg.checkpoint(n); err != nil {
				return err
			}
			// A strip of rows at a time: the grouping vectors are normalised
			// into key cells once, for all sets; per set one call turns rows
			// into ordinals, then one aggregate at a time folds over
			// (ordinals, argument vector). Each group still sees its rows in
			// order, so float SUMs add up as on the row path.
			for at := 0; at < n; at += stripRows {
				ords := ordinals[:min(stripRows, n-at)]
				for pos := range keys {
					keys[pos].load(keys[pos].vec, at, len(ords))
				}
				for si, gs := range sets {
					t := tables[si]
					t.findBatch(keys, gs, hashes[:len(ords)], ords, true)
					for ai := range accums {
						if err := accums[ai].fold(&t.aggs, ai, at, ords); err != nil {
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
	cw := chunkWriter{ncols: len(b.Cols)}
	for si, gs := range sets {
		for _, p := range partials[1:] {
			if err := merged[si].mergeFrom(p[si], aggSpecs); err != nil {
				return nil, err
			}
		}
		cw.left += outRows(merged[si], gs)
	}
	for si, gs := range sets {
		if err := ev.emitGroups(b, aggSpecs, gs, merged[si], cw.add); err != nil {
			return nil, err
		}
	}
	ev.obsv.Add(CtrVecBoxes, 1)
	ev.usedVector = true
	return chunkRelation(cw.chunks), nil
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

// vecAccum folds one aggregate's argument vector into group states. bind
// re-aims it at a chunk's vector and picks fold's loop once per chunk, so kind
// dispatch is not per row; the typed modes mutate the same aggState fields the
// row engine's accumulate does and fall back to it for anything outside
// count/sum/min/max over typed numeric vectors, so merge and result semantics
// are unchanged. One per aggregate per worker: no closure is built per chunk.
type vecAccum struct {
	spec  *qgm.Agg
	av    *sqltypes.Vec
	mode  accumMode
	op    aggOp // which of sum/min/max, for the typed modes
	nulls bool
	kbuf  []byte // DISTINCT key scratch
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

type aggOp uint8

const (
	opSum aggOp = iota
	opMin
	opMax
)

func (a *vecAccum) bind(spec *qgm.Agg, av *sqltypes.Vec) {
	a.spec, a.av, a.mode = spec, av, accBoxed
	switch {
	case spec.Star:
		a.mode = accStar
		return
	case av.Generic():
		return
	case spec.Distinct:
		a.mode = accDistinct
		return
	}
	a.nulls = av.HasNulls()
	switch spec.Op {
	case "count":
		a.mode = accCount
		return
	case "sum":
		a.op = opSum
	case "min":
		a.op = opMin
	case "max":
		a.op = opMax
	default:
		return
	}
	switch av.Kind() {
	case sqltypes.KindInt:
		a.mode = accInt
	case sqltypes.KindFloat:
		a.mode = accFloat
	}
}

// fold adds a strip of the chunk's elements into aggregate ai of their groups:
// element at+i goes to group ords[i]. The mode picks the loop, once per strip.
func (a *vecAccum) fold(aggs *slab[aggState], ai, at int, ords []uint32) error {
	av := a.av
	switch a.mode {
	case accStar:
		for _, g := range ords {
			aggs.at(int(g))[ai].count++
		}
	case accCount:
		for i, g := range ords {
			if !av.IsNull(at + i) {
				aggs.at(int(g))[ai].count++
			}
		}
	case accInt:
		for i, x := range av.Ints[at : at+len(ords)] {
			if a.nulls && av.IsNull(at+i) {
				continue
			}
			if err := a.addInt(&aggs.at(int(ords[i]))[ai], x); err != nil {
				return err
			}
		}
	case accFloat:
		for i, f := range av.Floats[at : at+len(ords)] {
			if a.nulls && av.IsNull(at+i) {
				continue
			}
			if err := a.addFloat(&aggs.at(int(ords[i]))[ai], f); err != nil {
				return err
			}
		}
	case accBoxed:
		for i, g := range ords {
			if err := aggs.at(int(g))[ai].accumulate(a.spec, av.Value(at+i)); err != nil {
				return err
			}
		}
	case accDistinct:
		for i, g := range ords {
			if av.IsNull(at + i) {
				continue
			}
			a.kbuf = sqltypes.AppendBinKeyValue(a.kbuf[:0], av.Value(at+i))
			aggs.at(int(g))[ai].addDistinct(a.spec, a.kbuf, av.Value(at+i))
		}
	}
	return nil
}

// addInt and addFloat are the typed running values: same arithmetic as
// aggState.fold on the same kinds (the strict inequalities match Compare's
// cmpInt/cmpFloat exactly, so ties and NaN comparisons keep the current
// extremum). A state holding another kind — earlier chunks of another payload
// kind — takes the boxed route.
func (a *vecAccum) addInt(s *aggState, x int64) error {
	switch {
	case s.val.IsNull():
	case s.val.Kind() != sqltypes.KindInt:
		return s.fold(a.spec.Op, sqltypes.NewInt(x))
	case a.op == opSum:
		x = s.val.Int() + x
	case a.op == opMin && !(x < s.val.Int()), a.op == opMax && !(x > s.val.Int()):
		return nil
	}
	s.val = sqltypes.NewInt(x)
	return nil
}

func (a *vecAccum) addFloat(s *aggState, f float64) error {
	switch {
	case s.val.IsNull():
	case s.val.Kind() != sqltypes.KindFloat:
		return s.fold(a.spec.Op, sqltypes.NewFloat(f))
	case a.op == opSum:
		f = s.val.Float() + f
	case a.op == opMin && !(f < s.val.Float()), a.op == opMax && !(f > s.val.Float()):
		return nil
	}
	s.val = sqltypes.NewFloat(f)
	return nil
}
