package exec

import (
	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// source is the one chunk source of the vectorized path, planned once per
// SELECT box (planSource), or for the single child of a GROUP BY. It reads the
// chunks of the box's first ForEach quantifier — a base-table scan, or the
// relation of an already evaluated child box — and narrows each with the
// predicates local to that quantifier. When the box joins, the first
// quantifier is the fact side of a star join: every further ForEach quantifier
// is a dimension, hashed at plan time on the equality predicates that tie it
// to the fact (its local predicates applied while hashing), and each chunk's
// surviving fact rows probe those tables in batches. Per chunk and per worker
// (srcWorker) the source yields a selection and a tuple count; the two sinks —
// GROUP BY aggregation and SELECT projection — ask it for the column vectors of
// their expressions in the tuple domain (cols at plan time, eval per chunk).
type source struct {
	ev      *evaluator
	vc      vecCompiler // lowers expressions over the fact quantifier
	ectx    exprCtx
	fact    *qgm.Quantifier
	dimQs   []*qgm.Quantifier
	rel     *relation // the fact, evaluated: a child box by planSource, a base table by open
	filters []vecFilter
	dims    []starDim
	chunks  []*storage.Chunk // set by open
	total   int
}

// Where a source expression comes from: a dimension's index, or one of these.
const (
	srcFact   = -1 // the fact quantifier
	srcConst  = -2 // no quantifier at all (scalar subqueries are constants)
	srcMixed  = -3 // more than one of the box's quantifiers
	srcBeyond = -4 // something outside the box: an unbound or foreign quantifier, an aggregate
)

// Why a box left the vectorized path: the suffix of its
// exec.vector.declined.<reason> counter and its entry in Result.Declined.
const (
	declNoInput      = "no-input"             // SELECT without a ForEach quantifier
	declBeyondChild  = "expr-beyond-child"    // srcBeyond in a predicate, output or grouping expression
	declMixedSource  = "mixed-source-expr"    // output, grouping or argument expression over several join operands
	declCrossJoin    = "cross-join"           // a join operand no equality ties to the first one
	declNonEquiJoin  = "non-equi-join"        // a predicate across operands that is not fact-side = dim-side
	declDimDimJoin   = "dim-dim-join"         // an equality between two operands neither of which is the first
	declConstPred    = "constant-predicate"   // a join with a predicate over no operand at all
	declDimEval      = "dim-eval-error"       // a dimension expression raised an error the join might have avoided
	declGroupShape   = "groupby-shape"        // GROUP BY without exactly one ForEach child
	declNonAggOutput = "non-aggregate-output" // GROUP BY output column neither grouped nor aggregated
)

// decline records that a box falls back to the row path, and why.
func (ev *evaluator) decline(reason string) {
	ev.declined = append(ev.declined, reason)
	if ev.obsv != nil {
		ev.obsv.Add(CtrVecDeclined, 1)
		ev.obsv.Add(CtrVecDeclined+"."+reason, 1)
	}
}

// classify maps an expression to its single source: srcConst, srcFact, or k
// for the k-th dimension; srcMixed and srcBeyond are the two ways it can have
// none. It runs per predicate and per output expression of every box, so it
// must not allocate: WalkExpr does not retain its callback.
func (s *source) classify(e qgm.Expr) int {
	src := srcConst
	qgm.WalkExpr(e, func(x qgm.Expr) bool {
		if src < srcConst {
			return false
		}
		from := srcConst
		switch t := x.(type) {
		case *qgm.Agg:
			from = srcBeyond
		case *qgm.ColRef:
			if t.Q == nil {
				from = srcBeyond
			} else if _, isScalar := s.vc.ectx.scalars[t.Q.ID]; !isScalar {
				from = srcBeyond
				if t.Q.ID == s.fact.ID {
					from = srcFact
				}
				for k, dq := range s.dimQs {
					if dq.ID == t.Q.ID {
						from = k
					}
				}
			}
		}
		switch {
		case from == srcConst:
		case from == srcBeyond, src == srcConst:
			src = from
		case src != from:
			src = srcMixed
		}
		return true
	})
	return src
}

// planSource plans the source of a SELECT box, or of a GROUP BY box read as a
// SELECT with one quantifier and no predicates. A non-empty reason means the
// shape declines; nothing unmemoized has been evaluated by then, so the row
// path repeats no work. Scalar subqueries evaluate first and dimensions in
// FROM order, as on the row path; the fact scan waits for open.
func (ev *evaluator) planSource(b *qgm.Box) (s *source, reason string, err error) {
	s = &source{ev: ev}
	var scalars map[int]sqltypes.Value
	for _, q := range b.Quantifiers {
		switch {
		case q.Kind == qgm.Scalar:
			v, err := ev.scalarValue(q.Box)
			if err != nil {
				return nil, "", err
			}
			if scalars == nil {
				scalars = map[int]sqltypes.Value{}
			}
			scalars[q.ID] = v
		case q.Kind != qgm.ForEach:
		case s.fact == nil:
			s.fact = q
		default:
			s.dimQs = append(s.dimQs, q)
		}
	}
	if s.fact == nil {
		return nil, declNoInput, nil
	}
	s.ectx.scalars = scalars
	s.ectx.setSlot(s.fact.ID, 0)
	s.vc = vecCompiler{ev: ev, ectx: &s.ectx, baseQID: s.fact.ID}

	// Partition the predicates: fact-local ones become chunk filters,
	// dimension-local ones apply while the dimension is hashed, and a
	// predicate across operands must be a fact = dimension equality, which
	// becomes a hash key.
	nd := len(s.dimQs)
	var factPreds []qgm.Expr
	dimPreds := make([][]qgm.Expr, nd)
	factKeys := make([][]qgm.Expr, nd)
	dimKeys := make([][]qgm.Expr, nd)
	for _, p := range b.Preds {
		switch src := s.classify(p); {
		case src >= 0:
			dimPreds[src] = append(dimPreds[src], p)
		case src == srcFact, src == srcConst && nd == 0:
			factPreds = append(factPreds, p)
		case src == srcConst:
			return nil, declConstPred, nil
		case src == srcBeyond:
			return nil, declBeyondChild, nil
		default:
			bin, isBin := p.(*qgm.Bin)
			if !isBin || bin.Op != "=" {
				return nil, declNonEquiJoin, nil
			}
			l, r, fk, dk := s.classify(bin.L), s.classify(bin.R), bin.L, bin.R
			if l >= 0 && r >= 0 {
				return nil, declDimDimJoin, nil
			}
			if l >= 0 {
				l, r, fk, dk = r, l, dk, fk
			}
			if l != srcFact || r < 0 {
				return nil, declNonEquiJoin, nil
			}
			factKeys[r] = append(factKeys[r], fk)
			dimKeys[r] = append(dimKeys[r], dk)
		}
	}
	for k := range s.dimQs {
		if len(factKeys[k]) == 0 {
			return nil, declCrossJoin, nil
		}
	}
	if s.fact.Box.Kind != qgm.BaseTableBox {
		if s.rel, err = ev.evalBox(s.fact.Box); err != nil {
			return nil, "", err
		}
	}

	// Build each dimension from its evaluated relation (memoized, charged as
	// on the row path), reading its rows through one buffer. The row path
	// evaluates dimension expressions only on rows that survive the join, so
	// an error here declines instead.
	s.dims = make([]starDim, nd)
	for k, dq := range s.dimQs {
		rel, err := ev.evalBox(dq.Box)
		if err != nil {
			return nil, "", err
		}
		sd := starDim{chunks: rel.chunksOf(len(dq.Box.Cols)), n: rel.n, ctx: &exprCtx{scalars: scalars}, set: allInts(len(dimKeys[k])), table: newGroupTable(len(dimKeys[k]), nil)}
		sd.ctx.setSlot(dq.ID, 0)
		for _, e := range factKeys[k] {
			sd.keyKs = append(sd.keyKs, s.vc.compileScalar(e))
		}
		bd := make(binding, 1)
		key := make([]sqltypes.Value, len(dimKeys[k]))
		ords := make([]int32, rel.n) // per row: the ordinal of its key, -1 when it is not in the table
		err = storage.EachRow(sd.chunks, func(ri int, r []sqltypes.Value) error {
			bd[0], ords[ri] = r, -1
			for _, p := range dimPreds[k] {
				if tv, err := sd.ctx.evalPred(p, bd); err != nil || tv != sqltypes.True {
					return err
				}
			}
			for i, e := range dimKeys[k] {
				var err error
				if key[i], err = sd.ctx.evalScalar(e, bd); err != nil || key[i].IsNull() {
					return err // NULL join keys never match
				}
			}
			ords[ri] = int32(sd.table.find(key))
			return nil
		})
		if err != nil {
			return nil, declDimEval, nil
		}
		// Counting sort by ordinal: list[offsets[g]:offsets[g+1]] are the rows
		// of key g, in row order.
		sd.offsets = make([]int32, sd.table.n+2)
		for _, g := range ords {
			if g >= 0 {
				sd.offsets[g+2]++
			}
		}
		for g := 2; g < len(sd.offsets); g++ {
			sd.offsets[g] += sd.offsets[g-1]
		}
		sd.list = make([]int32, sd.offsets[len(sd.offsets)-1])
		for ri, g := range ords {
			if g >= 0 {
				sd.list[sd.offsets[g+1]] = int32(ri)
				sd.offsets[g+1]++
			}
		}
		s.dims[k] = sd
	}
	s.filters = make([]vecFilter, len(factPreds))
	for i, p := range factPreds {
		s.filters[i] = s.vc.compileFilter(p)
	}
	return s, "", nil
}

// Filter runs where (nil: every row) and exprs over chunks, the rows of
// quantifier q, on the kernels a box compiles them to: what those do not lower
// is lifted, and counted on o, as in a box. For each chunk with rows where
// where is True it calls f with the chunk, the position of its first row,
// those rows (nil: all of them) and exprs' vectors aligned with them, valid
// until f returns. It stops at the first error. DML finds its rows and
// computes their SET values here.
func Filter(q *qgm.Quantifier, chunks []*storage.Chunk, where qgm.Expr, exprs []qgm.Expr, o *obs.Observer,
	f func(c *storage.Chunk, at int, sel []int32, vals []*sqltypes.Vec) error) error {
	ectx := &exprCtx{}
	ectx.setSlot(q.ID, 0)
	return (&evaluator{obsv: o}).filterChunks(ectx, q.ID, chunks, where, exprs, f)
}

// filterChunks is Filter over quantifier qid, bound in ectx beside the
// scalar-subquery values.
func (ev *evaluator) filterChunks(ectx *exprCtx, qid int, chunks []*storage.Chunk, where qgm.Expr, exprs []qgm.Expr,
	f func(c *storage.Chunk, at int, sel []int32, vals []*sqltypes.Vec) error) error {
	vc := vecCompiler{ev: ev, ectx: ectx, baseQID: qid}
	var filters []vecFilter
	if where != nil {
		filters = []vecFilter{vc.compileFilter(where)}
	}
	kernels := make([]vecKernel, len(exprs))
	for i, e := range exprs {
		kernels[i] = vc.compileScalar(e)
	}
	cs, vals, at := &chunkState{vecs: make([]*sqltypes.Vec, vc.slots)}, make([]*sqltypes.Vec, len(exprs)), 0
	for _, c := range chunks {
		err := cs.narrow(c, filters)
		for i := 0; i < len(kernels) && err == nil && cs.n() > 0; i++ {
			vals[i], err = kernels[i](cs)
		}
		if err == nil && cs.n() > 0 {
			err = f(c, at, cs.sel, vals)
		}
		if err != nil {
			return err
		}
		at += c.Len()
	}
	return nil
}

// starDim is one dimension of a join: its chunks and row count, the
// fact-side key kernels (evaluated per chunk) and a groupTable of its distinct
// keys, with each key's rows as a CSR list: list[offsets[g]:offsets[g+1]] are
// the row numbers of the key with ordinal g, in row order. Rows failing the
// dimension's local predicates or carrying a NULL key are absent, so a NULL
// fact key finds nothing (NULL join keys never match, as in hashJoin).
// Read-only once built: workers probe it concurrently.
type starDim struct {
	chunks  []*storage.Chunk
	n       int
	ctx     *exprCtx
	keyKs   []vecKernel
	set     []int // all the key columns, in order
	table   *groupTable
	offsets []int32
	list    []int32
}

// srcCol is one sink expression in the tuple domain. A fact-sourced one
// (src < 0) is a chunk kernel's result; a dimension-sourced one (src = k) is
// precomputed per dimension row at plan time, as a vector indexed by row
// number, and gathered through the tuples' dim-k row numbers into the worker's
// scratch slot. k is nil where there is no expression (COUNT(*)'s argument).
type srcCol struct {
	src     int
	k       vecKernel
	dimVals *sqltypes.Vec
	slot    int
}

// cols compiles the sink's expressions; a nil one yields an empty column. A
// non-empty reason declines.
func (s *source) cols(exprs []qgm.Expr) ([]srcCol, string) {
	out := make([]srcCol, len(exprs))
	for i, e := range exprs {
		c := &out[i]
		if c.src = srcFact; e == nil {
			continue
		}
		switch src := s.classify(e); {
		case src == srcBeyond:
			return nil, declBeyondChild
		case src == srcMixed:
			return nil, declMixedSource
		case src < 0:
			c.k = s.vc.compileScalar(e)
		default:
			c.src, c.dimVals = src, new(sqltypes.Vec)
			dim := &s.dims[src]
			err := s.ev.filterChunks(dim.ctx, s.dimQs[src].ID, dim.chunks, nil, []qgm.Expr{e}, func(_ *storage.Chunk, at int, _ []int32, vals []*sqltypes.Vec) error {
				if at == 0 {
					c.dimVals.Reserve(vals[0].Kind(), dim.n)
				}
				c.dimVals.AppendVec(vals[0], 0, vals[0].Len())
				return nil
			})
			if err != nil {
				return nil, declDimEval
			}
		}
		if len(s.dims) > 0 {
			c.slot = s.vc.newSlot()
		}
	}
	return out, ""
}

// open fetches the fact chunks: the child's relation, or the base table's,
// whose scan waits until here.
func (s *source) open() (err error) {
	if s.rel == nil {
		s.rel, err = s.ev.evalBox(s.fact.Box)
	}
	if err == nil {
		s.chunks, s.total = s.rel.chunksOf(len(s.fact.Box.Cols)), s.rel.n
	}
	return err
}

// srcWorker is one worker's cursor over the source: its chunk state and, for a
// join, the probe scratch (made by the first chunk; the key columns are the
// chunk state's). The chunk state is an object of its own because kernels
// hold it; the worker around it then stays on the sink's stack, as long as
// worker is small enough to inline.
type srcWorker struct {
	s        *source
	cs       *chunkState
	kv       [][]*sqltypes.Vec // per dim: fact key vectors for the current chunk
	hash     []uint64          // findBatch's scratch
	ords     [][]uint32        // per dim, per fact row of the strip: ordinal of the matching dimension key
	match    [][]int32         // per dim: matched dim rows for the current fact row
	ctr      []int             // odometer counters
	fdi      []int32           // per tuple: its fact row's position in the selection
	ddi      [][]int32         // per dim, per tuple: dim row number
	expanded bool              // some fact row matched more than once: tuples ≠ selection
}

func (s *source) worker() *srcWorker {
	return &srcWorker{s: s, cs: &chunkState{vecs: make([]*sqltypes.Vec, s.vc.slots)}}
}

// next moves the worker to chunk c and returns its tuple count: the rows the
// fact-local filters keep, joined against every dimension. The selection ends
// up holding exactly the fact rows that joined, so a sink's fact-sourced
// kernels never run on a row a filter or the join removed. Tuple order is the
// row path's join order: fact-row major, earlier dimensions outer, the last
// dimension varying fastest. Join output is charged to the budget here, one
// per tuple.
func (w *srcWorker) next(c *storage.Chunk, chg *charger) (int, error) {
	s, cs := w.s, w.cs
	if err := cs.narrow(c, s.filters); err != nil || cs.n() == 0 {
		return 0, err
	}
	nd := len(s.dims)
	if nd == 0 {
		return cs.n(), nil
	}
	if w.kv == nil {
		w.kv, w.ords, w.match, w.ctr, w.ddi = make([][]*sqltypes.Vec, nd), make([][]uint32, nd), make([][]int32, nd), make([]int, nd), make([][]int32, nd)
		for k := range s.dims {
			w.kv[k] = make([]*sqltypes.Vec, len(s.dims[k].keyKs))
			cs.keyCols(len(w.kv[k]))
		}
	}
	for k := range s.dims {
		for j, kk := range s.dims[k].keyKs {
			v, err := kk(cs)
			if err != nil {
				return 0, err
			}
			w.kv[k][j] = v
		}
	}
	w.fdi = w.fdi[:0]
	for k := range w.ddi {
		w.ddi[k] = w.ddi[k][:0]
	}
	sel := cs.selOut()
	for lo, n := 0, cs.n(); lo < n; lo += stripRows {
		// A strip of fact rows at a time, one lookup-only batch call per
		// dimension turns the fact keys into dimension key ordinals.
		m := min(stripRows, n-lo)
		w.hash = resize(w.hash, m)
		for k := range s.dims {
			for j, v := range w.kv[k] {
				cs.keys[j].load(v, lo, m)
			}
			w.ords[k] = resize(w.ords[k], m)
			s.dims[k].table.findBatch(cs.keys, s.dims[k].set, w.hash, w.ords[k], false)
		}
	facts:
		for i := 0; i < m; i++ {
			for k := range s.dims {
				g := w.ords[k][i]
				if g == noGroup {
					continue facts
				}
				w.match[k] = s.dims[k].list[s.dims[k].offsets[g]:s.dims[k].offsets[g+1]]
			}
			pos := int32(len(sel))
			sel = append(sel, int32(cs.rowIdx(lo+i)))
			clear(w.ctr)
			for k := 0; k >= 0; {
				w.fdi = append(w.fdi, pos)
				for k = 0; k < nd; k++ {
					w.ddi[k] = append(w.ddi[k], w.match[k][w.ctr[k]])
				}
				for k = nd - 1; k >= 0; k-- {
					if w.ctr[k]++; w.ctr[k] < len(w.match[k]) {
						break
					}
					w.ctr[k] = 0
				}
			}
		}
	}
	cs.setSel(sel)
	w.expanded = len(w.fdi) != len(sel)
	return len(w.fdi), chg.checkpoint(len(w.fdi))
}

// eval computes one sink column for the current chunk's tuples.
func (w *srcWorker) eval(c *srcCol) (*sqltypes.Vec, error) {
	src, idx := c.dimVals, w.fdi
	if c.src >= 0 {
		idx = w.ddi[c.src]
	} else {
		v, err := c.k(w.cs)
		if err != nil || !w.expanded {
			return v, err
		}
		src = v
	}
	out := w.cs.slot(c.slot)
	out.Gather(src, idx)
	return out, nil
}
