package exec

import (
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// evalGroupByVec evaluates a GROUP BY box vectorized. Three child shapes:
//
//   - base table: aggregation runs directly over the table's chunks;
//   - SELECT over one base table (the dominant shape of the paper's
//     star-schema aggregations: GROUP BY over scan+filter+projection): the
//     intermediate SELECT is fused away — its output-column expressions
//     substitute into the grouping and aggregate-argument expressions, its
//     predicates become chunk filters, and aggregation runs over the base
//     table's chunks. The fused child is not materialized and therefore not
//     memoized; in the workloads' plans a GROUP BY's select child has no
//     other consumer (DAG sharing happens at base-table boxes, which both
//     paths scan through the same fault site);
//   - anything else (joins, DISTINCT children, nested GROUP BYs): the child
//     evaluates through the normal box machinery — identical memoization,
//     budget accounting and errors to the row path — and its rows are
//     columnarized so the grouping itself still runs vectorized.
//
// In every shape, group and argument vectors are computed once per chunk and
// shared across all grouping sets, and per-worker partials merge in chunk
// order, so first-seen group order, each group's representative values, and
// (serially) even float SUM accumulation order are identical to the row path.
//
// handled=false declines to the row path (expressions beyond the child
// quantifier, non-aggregate output columns).
func (ev *evaluator) evalGroupByVec(b *qgm.Box) ([][]sqltypes.Value, bool, error) {
	if len(b.Quantifiers) != 1 || b.Quantifiers[0].Kind != qgm.ForEach {
		ev.obsv.Add(CtrVecDeclined, 1)
		return nil, false, nil
	}
	q := b.Quantifiers[0]
	child := q.Box

	// Non-grouping output columns must be aggregates (the row path's own
	// validation error covers the rest).
	aggSpecs, bad := aggSpecsOf(b)
	if bad >= 0 {
		ev.obsv.Add(CtrVecDeclined, 1)
		return nil, false, nil
	}
	nGroup := len(b.GroupBy)

	// Every grouping and aggregate-argument expression must range over the
	// box's single child quantifier; anything else (correlation, nested
	// aggregates) goes to the row path for its exact errors.
	var noScalars map[int]sqltypes.Value
	for _, col := range b.GroupBy {
		if !exprOverQuant(b.Cols[col].Expr, q.ID, noScalars) {
			ev.obsv.Add(CtrVecDeclined, 1)
			return nil, false, nil
		}
	}
	for _, spec := range aggSpecs {
		if !spec.agg.Star && !exprOverQuant(spec.agg.Arg, q.ID, noScalars) {
			ev.obsv.Add(CtrVecDeclined, 1)
			return nil, false, nil
		}
	}

	// Shape resolution: the fused base-table shapes first (aggregation runs
	// directly over storage chunks, nothing materialized), else evaluate the
	// child through the normal box machinery — identical memoization and
	// budget accounting to the row path — and columnarize its rows, so GROUP
	// BY over joins, DISTINCT children and nested GROUP BYs still aggregates
	// vectorized.
	var (
		filters []vecFilter
		groupKs []vecKernel
		argKs   []vecKernel
		chunks  []*storage.Chunk
		total   int
		star    *starPlan
		vc      *vecCompiler
	)
	tryFused := func() (bool, error) {
		var baseQ *qgm.Quantifier
		var dimQs []*qgm.Quantifier
		var childPreds []qgm.Expr
		var childCols []qgm.QCL // nil: child IS the base table, no substitution
		scalarQs := []*qgm.Quantifier(nil)
		switch child.Kind {
		case qgm.BaseTableBox:
			baseQ = q
		case qgm.SelectBox:
			if child.Distinct {
				return false, nil
			}
			for _, cq := range child.Quantifiers {
				switch cq.Kind {
				case qgm.ForEach:
					if baseQ == nil {
						baseQ = cq
					} else {
						dimQs = append(dimQs, cq)
					}
				case qgm.Scalar:
					scalarQs = append(scalarQs, cq)
				}
			}
			if baseQ == nil || baseQ.Box.Kind != qgm.BaseTableBox {
				return false, nil
			}
			for _, dq := range dimQs {
				if dq.Box.Kind != qgm.BaseTableBox {
					return false, nil
				}
			}
			childPreds = child.Preds
			childCols = child.Cols
			for _, c := range childCols {
				if c.Expr == nil {
					return false, nil
				}
			}
		default:
			return false, nil
		}

		// Substitute the fused SELECT's output expressions into the grouping
		// and aggregate-argument expressions, then require everything to be
		// over the base quantifier (plus scalar subqueries).
		subst := func(e qgm.Expr) (qgm.Expr, bool) {
			if childCols == nil {
				return e, true
			}
			return substExpr(e, q.ID, childCols)
		}
		groupExprs := make([]qgm.Expr, nGroup)
		for pos, col := range b.GroupBy {
			e, ok := subst(b.Cols[col].Expr)
			if !ok {
				return false, nil
			}
			groupExprs[pos] = e
		}
		argExprs := make([]qgm.Expr, len(aggSpecs)) // nil for COUNT(*)
		for ai, spec := range aggSpecs {
			if spec.agg.Star {
				continue
			}
			e, ok := subst(spec.agg.Arg)
			if !ok {
				return false, nil
			}
			argExprs[ai] = e
		}

		// Scalar subqueries of the fused child evaluate once, as the row
		// path would when evaluating that child. A multi-row scalar falls
		// through to the materialized path, whose child evaluation raises
		// the exact error.
		var scalars map[int]sqltypes.Value
		for _, sq := range scalarQs {
			rows, err := ev.evalBox(sq.Box)
			if err != nil {
				return false, err
			}
			if len(rows) > 1 {
				return false, nil
			}
			if scalars == nil {
				scalars = map[int]sqltypes.Value{}
			}
			scalars[sq.ID] = sqltypes.Null
			if len(rows) == 1 {
				scalars[sq.ID] = rows[0][0]
			}
		}

		ectx := &exprCtx{scalars: scalars}
		ectx.setSlot(baseQ.ID, 0)
		vc = &vecCompiler{ev: ev, ectx: ectx, baseQID: baseQ.ID}

		if len(dimQs) == 0 {
			for _, p := range childPreds {
				if !exprOverQuant(p, baseQ.ID, scalars) {
					return false, nil
				}
			}
			for _, e := range groupExprs {
				if !exprOverQuant(e, baseQ.ID, scalars) {
					return false, nil
				}
			}
			for _, e := range argExprs {
				if e != nil && !exprOverQuant(e, baseQ.ID, scalars) {
					return false, nil
				}
			}
			filters = make([]vecFilter, len(childPreds))
			for i, p := range childPreds {
				filters[i] = vc.compileFilter(p)
			}
			groupKs = make([]vecKernel, nGroup)
			for pos, e := range groupExprs {
				groupKs[pos] = vc.compileScalar(e)
			}
			argKs = make([]vecKernel, len(aggSpecs))
			for ai, e := range argExprs {
				if e != nil {
					argKs[ai] = vc.compileScalar(e)
				}
			}
			var err error
			chunks, total, err = ev.scanChunks(baseQ.Box.Table.Name)
			if err != nil {
				return false, err
			}
			return true, nil
		}

		// Star shape: the remaining ForEach quantifiers are dimensions, each
		// reachable from the fact quantifier by equality predicates. classify
		// maps an expression to its single source: srcConst when it references
		// no quantifier, srcFact the fact quantifier, k the k-th dimension;
		// mixed-source or aggregate-bearing expressions resolve ok=false. Like
		// exprOverQuant it walks without allocating.
		dimOf := map[int]int{}
		for k, dq := range dimQs {
			dimOf[dq.ID] = k
		}
		classify := func(e qgm.Expr) (src int, ok bool) {
			src, ok = srcConst, true
			qgm.WalkExpr(e, func(x qgm.Expr) bool {
				switch t := x.(type) {
				case *qgm.ColRef:
					if t.Q == nil {
						ok = false
						break
					}
					if _, isScalar := scalars[t.Q.ID]; isScalar {
						break
					}
					from := srcFact
					if t.Q.ID != baseQ.ID {
						if from, ok = dimOf[t.Q.ID]; !ok {
							break
						}
					}
					if src == srcConst {
						src = from
					}
					ok = src == from
				case *qgm.Agg:
					ok = false
				}
				return ok
			})
			return src, ok
		}

		// Partition the child predicates: fact-local (chunk filters),
		// dim-local (applied while building the dim hash), and fact↔dim
		// equality join keys. Any other shape — dim↔dim keys, non-equality
		// cross-quantifier predicates, constant predicates — falls back.
		var factPreds []qgm.Expr
		dimPreds := make([][]qgm.Expr, len(dimQs))
		factKeys := make([][]qgm.Expr, len(dimQs))
		dimKeys := make([][]qgm.Expr, len(dimQs))
		for _, p := range childPreds {
			if src, ok := classify(p); ok {
				switch {
				case src == srcConst:
					return false, nil // constant predicate: row path semantics
				case src == srcFact:
					factPreds = append(factPreds, p)
				default:
					dimPreds[src] = append(dimPreds[src], p)
				}
				continue
			}
			bin, isBin := p.(*qgm.Bin)
			if !isBin || bin.Op != "=" {
				return false, nil
			}
			lsrc, lok := classify(bin.L)
			rsrc, rok := classify(bin.R)
			if !lok || !rok {
				return false, nil
			}
			switch {
			case lsrc < 0 && rsrc >= 0:
				factKeys[rsrc] = append(factKeys[rsrc], bin.L)
				dimKeys[rsrc] = append(dimKeys[rsrc], bin.R)
			case rsrc < 0 && lsrc >= 0:
				factKeys[lsrc] = append(factKeys[lsrc], bin.R)
				dimKeys[lsrc] = append(dimKeys[lsrc], bin.L)
			default:
				return false, nil
			}
		}
		for k := range dimQs {
			if len(factKeys[k]) == 0 {
				return false, nil // cross join: row path order semantics
			}
		}

		// Classify grouping and argument expressions by source; each gets the
		// scratch slot its tuple-domain vector is gathered into.
		sp := &starPlan{group: make([]starCol, nGroup), args: make([]starCol, len(aggSpecs))}
		for pos, e := range groupExprs {
			src, ok := classify(e)
			if !ok {
				return false, nil
			}
			sp.group[pos] = starCol{src: max(src, srcFact), slot: vc.newSlot()}
		}
		for ai, e := range argExprs {
			sp.args[ai].src = srcFact
			if e == nil {
				continue
			}
			src, ok := classify(e)
			if !ok {
				return false, nil
			}
			sp.args[ai] = starCol{src: max(src, srcFact), slot: vc.newSlot()}
		}

		// Build each dimension: evaluate its rows through the normal box
		// machinery (memoized, same budget charges as the row path), filter
		// by its local predicates, hash its join-key values, and precompute
		// every dim-sourced grouping/argument expression per row. The row
		// path only ever evaluates these on rows that survive the join, so
		// any evaluation error here falls back to the materialized path,
		// which reproduces row-path behavior exactly.
		sp.dims = make([]starDim, len(dimQs))
		for k, dq := range dimQs {
			dimRows, err := ev.evalBox(dq.Box)
			if err != nil {
				return false, err
			}
			dctx := &exprCtx{scalars: scalars}
			dctx.setSlot(dq.ID, 0)
			predKs := make([]predKernel, len(dimPreds[k]))
			for i, p := range dimPreds[k] {
				if ev.interp {
					p := p
					predKs[i] = func(bd binding) (sqltypes.Tri, error) { return dctx.evalPred(p, bd) }
					continue
				}
				pk, ok := dctx.compilePred(p)
				ev.countCompile(ok)
				predKs[i] = pk
			}
			keyKs := make([]scalarKernel, len(dimKeys[k]))
			for i, e := range dimKeys[k] {
				keyKs[i] = ev.scalarKernel(dctx, e)
			}
			sd := starDim{table: map[string][]int32{}}
			bd := make(binding, 1)
			var kbuf []byte
			for ri, r := range dimRows {
				bd[0] = r
				pass := true
				for _, pk := range predKs {
					tv, err := pk(bd)
					if err != nil {
						return false, nil
					}
					if tv != sqltypes.True {
						pass = false
						break
					}
				}
				if !pass {
					continue
				}
				kbuf = kbuf[:0]
				null := false
				for _, kk := range keyKs {
					v, err := kk(bd)
					if err != nil {
						return false, nil
					}
					if v.IsNull() {
						null = true
						break
					}
					kbuf = sqltypes.AppendBinKeyValue(kbuf, v)
					kbuf = append(kbuf, 0)
				}
				if null {
					continue // NULL join keys never match
				}
				sd.table[string(kbuf)] = append(sd.table[string(kbuf)], int32(ri))
			}
			for _, e := range factKeys[k] {
				sd.keyKs = append(sd.keyKs, vc.compileScalar(e))
			}
			evalPerRow := func(e qgm.Expr, into *sqltypes.Vec) bool {
				rk := ev.scalarKernel(dctx, e)
				for ri, r := range dimRows {
					bd[0] = r
					v, err := rk(bd)
					if err != nil {
						return false
					}
					if ri == 0 {
						into.Reserve(v.Kind(), len(dimRows))
					}
					into.AppendValue(v)
				}
				return true
			}
			for pos, e := range groupExprs {
				if sp.group[pos].src == k && !evalPerRow(e, &sp.group[pos].dimVals) {
					return false, nil
				}
			}
			for ai, e := range argExprs {
				if e != nil && sp.args[ai].src == k && !evalPerRow(e, &sp.args[ai].dimVals) {
					return false, nil
				}
			}
			sp.dims[k] = sd
		}

		// Fact-side compilation; the shared aggregation loop reads gvecs and
		// avecs in the join-output tuple domain, so fact-sourced kernels are
		// gathered through the tuple fact indices after the probe.
		filters = make([]vecFilter, len(factPreds))
		for i, p := range factPreds {
			filters[i] = vc.compileFilter(p)
		}
		groupKs = make([]vecKernel, nGroup)
		for pos, e := range groupExprs {
			if sp.group[pos].src < 0 {
				groupKs[pos] = vc.compileScalar(e)
			}
		}
		argKs = make([]vecKernel, len(aggSpecs))
		for ai, e := range argExprs {
			if e != nil && sp.args[ai].src < 0 {
				argKs[ai] = vc.compileScalar(e)
			}
		}

		var err error
		chunks, total, err = ev.scanChunks(baseQ.Box.Table.Name)
		if err != nil {
			return false, err
		}
		star = sp
		return true, nil
	}
	fused, err := tryFused()
	if err != nil {
		return nil, true, err
	}
	if !fused {
		rows, err := ev.evalBox(child)
		if err != nil {
			return nil, true, err
		}
		ectx := &exprCtx{}
		ectx.setSlot(q.ID, 0)
		vc = &vecCompiler{ev: ev, ectx: ectx, baseQID: q.ID}
		groupKs = make([]vecKernel, nGroup)
		for pos, col := range b.GroupBy {
			groupKs[pos] = vc.compileScalar(b.Cols[col].Expr)
		}
		argKs = make([]vecKernel, len(aggSpecs))
		for ai, spec := range aggSpecs {
			if !spec.agg.Star {
				argKs[ai] = vc.compileScalar(spec.agg.Arg)
			}
		}
		filters = nil
		chunks = columnarize(rows, len(child.Cols))
		total = len(rows)
	}

	sets := b.GroupingSets
	if len(sets) == 0 {
		sets = [][]int{allInts(nGroup)}
	}

	// One aggregation pass over the chunks computes every grouping set:
	// group/argument vectors are evaluated once per chunk, then each set
	// accumulates into its own groupTable. Set-major within each chunk and
	// chunk-major merging keeps every per-set ordering identical to the row
	// path's set-major-over-all-rows order.
	workers := ev.workersFor(total)
	partials := make([][]*groupTable, workers)
	err = ev.parallelChunks(len(chunks), workers, func(w, lo, hi int, chg *charger) error {
		cs := newChunkState(vc.slots)
		var ss *starScratch
		if star != nil {
			ss = newStarScratch(star)
		}
		tables := make([]*groupTable, len(sets))
		for si := range tables {
			tables[si] = newGroupTable(len(sets[si]), len(aggSpecs))
		}
		gvecs := make([]*sqltypes.Vec, nGroup)
		avecs := make([]*sqltypes.Vec, len(aggSpecs))
		accums := make([]vecAccum, len(aggSpecs))
		var buf []byte
		for ci := lo; ci < hi; ci++ {
			cs.reset(chunks[ci])
			for _, f := range filters {
				if err := f(cs); err != nil {
					return err
				}
				if cs.n() == 0 {
					break
				}
			}
			n := cs.n()
			if n == 0 {
				continue
			}
			if ss != nil {
				// Star shape: probe the dimension hash tables with this
				// chunk's fact keys and synthesize group/argument vectors in
				// the join-output tuple domain.
				var err error
				n, err = ss.expand(cs, groupKs, argKs, gvecs, avecs)
				if err != nil {
					return err
				}
				if n == 0 {
					continue
				}
			} else {
				for pos, k := range groupKs {
					v, err := k(cs)
					if err != nil {
						return err
					}
					gvecs[pos] = v
				}
				for ai, k := range argKs {
					if k == nil {
						continue
					}
					v, err := k(cs)
					if err != nil {
						return err
					}
					avecs[ai] = v
				}
			}
			// Kind dispatch per chunk, not per row: each aggregate's
			// accumulator is re-aimed at this chunk's argument vector.
			for ai := range aggSpecs {
				accums[ai].bind(aggSpecs[ai].agg, avecs[ai])
			}
			for si, gs := range sets {
				// The per-input-row budget charge lands on the first grouping
				// set, batched per chunk (same totals as the row path's fused
				// per-row charge).
				rowCharge := 0
				if si == 0 {
					rowCharge = n
				}
				if err := chg.checkpoint(rowCharge); err != nil {
					return err
				}
				t := tables[si]
				for di := 0; di < n; di++ {
					buf = buf[:0]
					for _, pos := range gs {
						buf = gvecs[pos].AppendBinKey(buf, di)
						buf = append(buf, 0)
					}
					g, added := t.find(buf)
					if added {
						// repr copies Values out of scratch: it outlives the chunk.
						repr := t.reprOf(g)
						for i, pos := range gs {
							repr[i] = gvecs[pos].Value(di)
						}
					}
					aggs := t.aggsOf(g)
					for ai := range accums {
						if err := accums[ai].add(&aggs[ai], di); err != nil {
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
		return nil, true, err
	}

	// Merge workers' per-set partials in chunk order, then emit set by set
	// from one slab sized by the total group count.
	merged := partials[0]
	rows := 0
	for si, gs := range sets {
		for _, p := range partials[1:] {
			if err := merged[si].mergeFrom(p[si], aggSpecs); err != nil {
				return nil, true, err
			}
		}
		rows += outRows(merged[si], gs)
	}
	slab := rowSlab{width: len(b.Cols)}
	slab.reserve(rows)
	out := make([][]sqltypes.Value, 0, rows)
	for si, gs := range sets {
		if out, err = ev.emitGroups(out, &slab, b, aggSpecs, gs, merged[si]); err != nil {
			return nil, true, err
		}
	}
	ev.obsv.Add(CtrVecBoxes, 1)
	ev.usedVector = true
	return out, true, nil
}

// columnarize builds read-only chunks from materialized child rows so the
// grouping loop can run vectorized over any child shape. Row order is
// preserved, so chunk-order merging keeps the row path's group order.
func columnarize(rows [][]sqltypes.Value, ncols int) []*storage.Chunk {
	chunks := make([]*storage.Chunk, 0, (len(rows)+storage.ChunkRows-1)/storage.ChunkRows)
	for lo := 0; lo < len(rows); lo += storage.ChunkRows {
		hi := lo + storage.ChunkRows
		if hi > len(rows) {
			hi = len(rows)
		}
		c := &storage.Chunk{N: hi - lo, Cols: make([]sqltypes.Vec, ncols)}
		for ci := range c.Cols {
			c.Cols[ci].Reserve(rows[lo][ci].Kind(), hi-lo)
		}
		for _, r := range rows[lo:hi] {
			for ci := 0; ci < ncols; ci++ {
				c.Cols[ci].AppendValue(r[ci])
			}
		}
		chunks = append(chunks, c)
	}
	return chunks
}

// substExpr rewrites e, replacing every reference to quantifier qid's column
// c with cols[c].Expr (the fused SELECT child's output expression). Shared
// subtrees are fine — expressions are immutable. Returns ok=false on an
// unknown node shape, declining the fusion.
func substExpr(e qgm.Expr, qid int, cols []qgm.QCL) (qgm.Expr, bool) {
	switch t := e.(type) {
	case *qgm.ColRef:
		if t.Q != nil && t.Q.ID == qid {
			if t.Col < 0 || t.Col >= len(cols) || cols[t.Col].Expr == nil {
				return nil, false
			}
			return cols[t.Col].Expr, true
		}
		return t, true
	case *qgm.Const:
		return t, true
	case *qgm.Call:
		args := make([]qgm.Expr, len(t.Args))
		for i, a := range t.Args {
			na, ok := substExpr(a, qid, cols)
			if !ok {
				return nil, false
			}
			args[i] = na
		}
		return &qgm.Call{Name: t.Name, Args: args}, true
	case *qgm.Bin:
		l, lok := substExpr(t.L, qid, cols)
		r, rok := substExpr(t.R, qid, cols)
		if !lok || !rok {
			return nil, false
		}
		return &qgm.Bin{Op: t.Op, L: l, R: r}, true
	case *qgm.Not:
		inner, ok := substExpr(t.E, qid, cols)
		if !ok {
			return nil, false
		}
		return &qgm.Not{E: inner}, true
	case *qgm.IsNull:
		inner, ok := substExpr(t.E, qid, cols)
		if !ok {
			return nil, false
		}
		return &qgm.IsNull{E: inner, Neg: t.Neg}, true
	case *qgm.Like:
		v, vok := substExpr(t.E, qid, cols)
		p, pok := substExpr(t.Pattern, qid, cols)
		if !vok || !pok {
			return nil, false
		}
		return &qgm.Like{E: v, Pattern: p, Neg: t.Neg}, true
	case *qgm.Agg:
		if t.Star {
			return t, true
		}
		a, ok := substExpr(t.Arg, qid, cols)
		if !ok {
			return nil, false
		}
		return &qgm.Agg{Op: t.Op, Arg: a, Star: t.Star, Distinct: t.Distinct}, true
	case *qgm.Case:
		whens := make([]qgm.CaseWhen, len(t.Whens))
		for i, w := range t.Whens {
			c, cok := substExpr(w.Cond, qid, cols)
			th, tok := substExpr(w.Then, qid, cols)
			if !cok || !tok {
				return nil, false
			}
			whens[i] = qgm.CaseWhen{Cond: c, Then: th}
		}
		var els qgm.Expr
		if t.Else != nil {
			var ok bool
			els, ok = substExpr(t.Else, qid, cols)
			if !ok {
				return nil, false
			}
		}
		return &qgm.Case{Whens: whens, Else: els}, true
	default:
		return nil, false
	}
}

// vecAccum folds elements of one aggregate's argument vector into group
// states. bind re-aims it at a chunk's vector and picks the loop once per
// chunk, so kind dispatch is not per row; the typed modes mutate the same
// aggState fields the row engine's accumulate does and fall back to it for
// anything outside count/sum/min/max over typed numeric vectors, so merge and
// result semantics are unchanged. One per aggregate per worker: no closure is
// built per chunk.
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

// add folds element di into s.
func (a *vecAccum) add(s *aggState, di int) error {
	av := a.av
	switch a.mode {
	case accStar:
		s.count++
		return nil
	case accBoxed:
		return s.accumulate(a.spec, av.Value(di))
	case accDistinct:
		// Binary keys instead of the row engine's decimal GroupKey: the
		// equivalence classes are identical and distinct sets built by the
		// vectorized path are only ever merged with each other. First value
		// of a class wins as its representative (the row engine keeps the
		// last); observable only through the result kind of SUM/MIN/MAX
		// DISTINCT over classes mixing int and float spellings.
		if av.IsNull(di) {
			return nil
		}
		a.kbuf = av.AppendBinKey(a.kbuf[:0], di)
		if s.distinct == nil {
			s.distinct = map[string]sqltypes.Value{}
		}
		if _, ok := s.distinct[string(a.kbuf)]; !ok {
			s.distinct[string(a.kbuf)] = av.Value(di)
		}
		return nil
	}
	if a.nulls && av.IsNull(di) {
		return nil
	}
	// Typed running values: same arithmetic as fold on the same kinds (the
	// strict inequalities match Compare's cmpInt/cmpFloat exactly, so ties and
	// NaN comparisons keep the current extremum). A state holding another
	// kind — earlier chunks of another payload kind — takes the boxed route.
	switch a.mode {
	case accCount:
		s.count++
	case accInt:
		x := av.Ints[di]
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
	case accFloat:
		f := av.Floats[di]
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
	}
	return nil
}

// Sources of a star-join expression (starCol.src): a dimension's index, or
// one of these.
const (
	srcFact  = -1 // the fact quantifier (constants included, once classified)
	srcConst = -2 // no quantifier at all
)

// starPlan is the resolved star-join GROUP BY shape: a fact base table scanned
// in chunks, plus one hash table per dimension quantifier keyed by the
// fact↔dim equality predicates. Dimension rows are fully evaluated at plan
// time (they are small by assumption — the fact table drives the cost), so the
// per-chunk work is probe + tuple expansion only.
type starPlan struct {
	dims  []starDim
	group []starCol // per grouping expression
	args  []starCol // per aggregate; COUNT(*) has no column
}

// starCol is one grouping or aggregate-argument expression in the join-output
// tuple domain. A fact-sourced one (src < 0) is a chunk kernel's result
// gathered through the tuples' fact indices; a dimension-sourced one (src = k)
// is precomputed per dimension row at plan time, as a vector indexed by raw
// dimension row number (the indices stored in starDim.table), and gathered
// through the tuples' dim-k row numbers. slot is the worker scratch slot the
// gather lands in.
type starCol struct {
	src     int
	dimVals sqltypes.Vec
	slot    int
}

// starDim is one dimension: fact-side key kernels (vectorized, evaluated per
// chunk) and the hash table from binary-encoded key to matching dim row
// numbers, in dim row order. Rows failing the dimension's local predicates or
// carrying NULL keys are absent (NULL join keys never match, as in hashJoin).
type starDim struct {
	keyKs []vecKernel
	table map[string][]int32
}

// starScratch is per-worker star expansion state.
type starScratch struct {
	sp    *starPlan
	kv    [][]*sqltypes.Vec // per dim: fact key vectors for the current chunk
	match [][]int32         // per dim: matched dim rows for the current fact row
	ctr   []int             // odometer counters
	fdi   []int32           // per output tuple: fact index (selection domain)
	ddi   [][]int32         // per dim, per output tuple: dim row number
	kbuf  []byte
}

func newStarScratch(sp *starPlan) *starScratch {
	nd := len(sp.dims)
	ss := &starScratch{
		sp:    sp,
		kv:    make([][]*sqltypes.Vec, nd),
		match: make([][]int32, nd),
		ctr:   make([]int, nd),
		ddi:   make([][]int32, nd),
	}
	for k := range ss.kv {
		ss.kv[k] = make([]*sqltypes.Vec, len(sp.dims[k].keyKs))
	}
	return ss
}

// expand joins the chunk's surviving fact rows against every dimension and
// fills gvecs/avecs with tuple-domain vectors, returning the tuple count.
// Tuple order matches the row path's join order: fact-row major, earlier
// dimensions outer, the last dimension varying fastest.
func (ss *starScratch) expand(cs *chunkState, groupKs, argKs []vecKernel, gvecs, avecs []*sqltypes.Vec) (int, error) {
	sp := ss.sp
	n := cs.n()
	for k := range sp.dims {
		for j, kk := range sp.dims[k].keyKs {
			v, err := kk(cs)
			if err != nil {
				return 0, err
			}
			ss.kv[k][j] = v
		}
	}
	ss.fdi = ss.fdi[:0]
	for k := range ss.ddi {
		ss.ddi[k] = ss.ddi[k][:0]
	}
	nd := len(sp.dims)
	for di := 0; di < n; di++ {
		matched := true
		for k := 0; k < nd; k++ {
			ss.kbuf = ss.kbuf[:0]
			null := false
			for _, v := range ss.kv[k] {
				if v.IsNull(di) {
					null = true
					break
				}
				ss.kbuf = v.AppendBinKey(ss.kbuf, di)
				ss.kbuf = append(ss.kbuf, 0)
			}
			if null {
				matched = false
				break
			}
			m := sp.dims[k].table[string(ss.kbuf)]
			if len(m) == 0 {
				matched = false
				break
			}
			ss.match[k] = m
		}
		if !matched {
			continue
		}
		for k := range ss.ctr {
			ss.ctr[k] = 0
		}
		for {
			ss.fdi = append(ss.fdi, int32(di))
			for k := 0; k < nd; k++ {
				ss.ddi[k] = append(ss.ddi[k], ss.match[k][ss.ctr[k]])
			}
			k := nd - 1
			for ; k >= 0; k-- {
				ss.ctr[k]++
				if ss.ctr[k] < len(ss.match[k]) {
					break
				}
				ss.ctr[k] = 0
			}
			if k < 0 {
				break
			}
		}
	}
	nOut := len(ss.fdi)
	if nOut == 0 {
		return 0, nil
	}
	// tuple gathers one column into the tuple domain; nil for COUNT(*).
	tuple := func(c *starCol, k vecKernel) (*sqltypes.Vec, error) {
		src, idx := &c.dimVals, ss.fdi
		switch {
		case c.src >= 0:
			idx = ss.ddi[c.src]
		case k != nil:
			var err error
			if src, err = k(cs); err != nil {
				return nil, err
			}
		default:
			return nil, nil
		}
		out := &cs.vecs[c.slot]
		out.Gather(src, idx)
		return out, nil
	}
	var err error
	for pos := range sp.group {
		if gvecs[pos], err = tuple(&sp.group[pos], groupKs[pos]); err != nil {
			return 0, err
		}
	}
	for ai := range sp.args {
		if avecs[ai], err = tuple(&sp.args[ai], argKs[ai]); err != nil {
			return 0, err
		}
	}
	return nOut, nil
}
