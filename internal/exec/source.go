package exec

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// source is the one chunk source of the pipeline, planned once per SELECT box
// (planSource), or for the single child of a GROUP BY. It reads the chunks of
// the box's first ForEach quantifier — a base-table scan, or the relation of
// an already evaluated child box; one zero-width row when there is none — and
// narrows each with the predicates local to that quantifier. When the box
// joins, the first quantifier is the fact side of a star join: every further
// ForEach quantifier is a dimension, hashed at plan time on the equalities
// that tie it to the fact, else on those that tie it to an earlier dimension
// (a snowflake), else on the empty key, which every fact row finds; its local
// predicates and keys run on the kernels while hashing. Each chunk's surviving
// fact rows probe the tables keyed on the fact in batches, and a dimension
// keyed on an earlier one is looked up from that one's row in the tuple. The
// tuples then become one joined chunk: the columns the box's other
// expressions read, gathered through the tuples' fact and dimension rows.
// Those expressions are rewritten onto its columns (onJoined), read as the
// fact quantifier's, so every kernel reads one quantifier, as in a box that
// does not join. Per chunk and per worker (srcWorker) the source yields the
// state the sink's kernels run over and its tuple count.
type source struct {
	ev       *evaluator
	vc       vecCompiler // lowers expressions over the fact quantifier, or over the joined chunk
	ectx     exprCtx
	fact     *qgm.Quantifier   // nil: the box reads one zero-width row
	dimQs    []*qgm.Quantifier // in the row path's join order (joinOrder)
	rel      *relation         // the fact, evaluated: a child box by planSource, a base table by open
	filters  []vecFilter
	dims     []starDim
	jcols    []joinCol        // the joined chunk's columns, added as onJoined meets them
	residual []vecFilter      // the joined chunk's filters: predicates neither local nor a fact = dimension key
	fused    *qgm.Quantifier  // a GROUP BY's quantifier over the SELECT box planned here (groupSource)
	chunks   []*storage.Chunk // set by open
	total    int
}

// joinCol is column col of the fact (src = srcFact) or of dimension src, whose
// whole column, indexed by row number, is dim: its values, or, when dict is
// set, their codes (starDim.codes).
type joinCol struct {
	src, col  int
	dim, dict *sqltypes.Vec
}

// Where a source expression comes from: a dimension's index, or one of these.
const (
	srcFact   = -1 // the fact quantifier
	srcConst  = -2 // no quantifier at all (scalar subqueries are constants)
	srcMixed  = -3 // more than one of the box's quantifiers
	srcBeyond = -4 // something outside the box: an unbound or foreign quantifier, an aggregate
)

// operand maps a quantifier ID to srcFact, a dimension's index, or srcBeyond.
func (s *source) operand(qid int) int {
	if s.fact != nil && qid == s.fact.ID {
		return srcFact
	}
	for k, dq := range s.dimQs {
		if dq.ID == qid {
			return k
		}
	}
	return srcBeyond
}

// span returns the least and the greatest operand e reads — srcFact, or k
// for the k-th dimension — srcConst twice when it reads none, and srcBeyond
// twice when it reaches beyond the box. It runs per predicate of every box,
// so it must not allocate: WalkExpr does not retain its callback.
func (s *source) span(e qgm.Expr) (lo, hi int) {
	lo, hi = srcConst, srcConst
	qgm.WalkExpr(e, func(x qgm.Expr) bool {
		if lo == srcBeyond {
			return false
		}
		k := srcConst
		switch t := x.(type) {
		case *qgm.Agg:
			k = srcBeyond
		case *qgm.ColRef:
			if t.Q == nil {
				k = srcBeyond
			} else if _, isScalar := s.ectx.scalars[t.Q.ID]; !isScalar {
				k = s.operand(t.Q.ID)
			}
		}
		switch {
		case k == srcBeyond, lo == srcConst:
			lo, hi = k, k
		case k != srcConst:
			lo, hi = min(lo, k), max(hi, k)
		}
		return true
	})
	return lo, hi
}

// classify maps an expression to its single source: srcConst, srcFact, or k
// for the k-th dimension; srcMixed and srcBeyond are the two ways it can have
// none.
func (s *source) classify(e qgm.Expr) int {
	lo, hi := s.span(e)
	if lo != hi {
		return srcMixed
	}
	return lo
}

// joinOrder puts the dimensions in the order the row path joins them
// (evalSelect): next comes the first one that an equality ties to the fact
// and the dimensions before it, else the first one left. The probe's tuples
// then come out in the row path's order.
func (s *source) joinOrder(preds []qgm.Expr) {
	for i := range s.dimQs {
		for j := i; j < len(s.dimQs); j++ {
			if s.tied(preds, j, i) {
				q := s.dimQs[j]
				s.dimQs = slices.Insert(slices.Delete(s.dimQs, j, j+1), i, q)
				break
			}
		}
	}
}

// tied reports whether one of preds equates an expression over dimension j
// alone with one over the fact and the first n dimensions: what the row path
// hash-joins dimension j on.
func (s *source) tied(preds []qgm.Expr, j, n int) bool {
	for _, p := range preds {
		if bin, ok := p.(*qgm.Bin); ok && bin.Op == "=" {
			for _, e := range [2][2]qgm.Expr{{bin.L, bin.R}, {bin.R, bin.L}} {
				if lo, hi := s.span(e[1]); s.classify(e[0]) == j && lo >= srcFact && hi < n {
					return true
				}
			}
		}
	}
	return false
}

// planSource plans the source of a SELECT box, or of a GROUP BY box read as a
// SELECT with one quantifier and no predicates. Scalar subqueries evaluate
// first and dimensions in join order, as on the row path, each then built on
// the chunk kernels (keyOrds); the fact scan waits for open. A predicate
// reaching beyond the box is the row path's error.
func (ev *evaluator) planSource(b *qgm.Box) (*source, error) {
	s := &source{ev: ev}
	var scalars map[int]sqltypes.Value
	for _, q := range b.Quantifiers {
		switch {
		case q.Kind == qgm.Scalar:
			v, err := ev.scalarValue(q.Box)
			if err != nil {
				return nil, err
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
	s.ectx.scalars = scalars
	s.vc = vecCompiler{ev: ev, ectx: &s.ectx, baseQID: -1}
	if s.fact == nil {
		// No input: one zero-width row, the row path's one empty binding.
		s.chunks, s.total = []*storage.Chunk{storage.NewChunk(1, nil)}, 1
	} else {
		s.ectx.setSlot(s.fact.ID, 0)
		s.vc.baseQID = s.fact.ID
	}
	s.joinOrder(b.Preds)

	// Partition the predicates: fact-local ones become chunk filters,
	// dimension-local ones apply while the dimension is hashed, an equality
	// between a dimension and an earlier operand may become a hash key (tie),
	// and every other one filters the joined chunk.
	nd := len(s.dimQs)
	var factPreds, residual []qgm.Expr
	dimPreds := make([][]qgm.Expr, nd)
	ties := make([][]tie, nd)
	for _, p := range b.Preds {
		switch src := s.classify(p); {
		case src == srcBeyond:
			return nil, fmt.Errorf("exec: predicate %s not evaluable", p.String())
		case src >= 0:
			dimPreds[src] = append(dimPreds[src], p)
		case src == srcFact, src == srcConst && nd == 0:
			factPreds = append(factPreds, p)
		default:
			if bin, isBin := p.(*qgm.Bin); isBin && bin.Op == "=" {
				on, de := bin.L, bin.R
				if s.classify(on) > s.classify(de) {
					on, de = de, on
				}
				if from, k := s.classify(on), s.classify(de); from >= srcFact && from < k {
					ties[k] = append(ties[k], tie{from: from, on: on, dim: de, pred: p})
					continue
				}
			}
			residual = append(residual, p)
		}
	}
	if s.fact != nil && s.fact.Box.Kind != qgm.BaseTableBox {
		var err error
		if s.rel, err = ev.evalBox(s.fact.Box); err != nil {
			return nil, err
		}
	}

	// Build each dimension from its evaluated relation (memoized, charged as
	// on the row path). It is keyed on its ties to the fact, else on those to
	// the earlier dimension of its first tie; its other ties filter the joined
	// chunk. Its local predicates and keys run on the chunk kernels (Filter)
	// over every row of it, joined or not.
	s.dims = make([]starDim, nd)
	for k, dq := range s.dimQs {
		rel, err := ev.evalBox(dq.Box)
		if err != nil {
			return nil, err
		}
		sd := &s.dims[k]
		sd.chunks, sd.via = rel.chunks, srcFact
		if len(ties[k]) > 0 && !slices.ContainsFunc(ties[k], func(t tie) bool { return t.from == srcFact }) {
			sd.via = ties[k][0].from
		}
		var on, keys []qgm.Expr
		for _, t := range ties[k] {
			if t.from != sd.via {
				residual = append(residual, t.pred)
				continue
			}
			on, keys = append(on, t.on), append(keys, t.dim)
			if sd.via == srcFact {
				sd.keyKs = append(sd.keyKs, s.vc.compileScalar(t.on))
			}
		}
		sd.set, sd.table = allInts(len(keys)), newGroupTable(len(keys), nil, rel.n, true)
		if sd.ords, err = s.keyOrds(sd.table, true, k, rel.n, dimPreds[k], keys, nil); err != nil {
			return nil, err
		}
		// Each key's rows, in row order: a chain from head[g] through next.
		sd.head, sd.next = make([]int32, sd.table.n), make([]int32, len(sd.ords))
		for g := range sd.head {
			sd.head[g] = -1
		}
		for ri := len(sd.ords) - 1; ri >= 0; ri-- {
			if g := sd.ords[ri]; g != noGroup {
				sd.next[ri], sd.head[g] = sd.head[g], int32(ri)
			}
		}
		if j := sd.via; j >= 0 {
			// Keyed on dimension j: per row of j that can join, the ordinal of
			// its key here.
			if sd.viaOrd, err = s.keyOrds(sd.table, false, j, len(s.dims[j].ords), nil, on, s.dims[j].ords); err != nil {
				return nil, err
			}
		}
	}
	s.filters = make([]vecFilter, len(factPreds))
	for i, p := range factPreds {
		s.filters[i] = s.vc.compileFilter(p)
	}
	for _, p := range residual {
		s.residual = append(s.residual, s.vc.compileFilter(s.onJoined(p)))
	}
	return s, nil
}

// tie is an equality between an expression over dimension k alone (dim) and
// one over an earlier operand alone (on): the fact (from = srcFact) or
// dimension from < k.
type tie struct {
	from          int
	on, dim, pred qgm.Expr
}

// keyOrds returns, per row of dimension k (n rows), the ordinal in t of its
// values of keys, found or, with insert, added. preds filter its chunks and
// keys evaluate over what they keep, on the kernels (Filter); a strip at a
// time, each run of rows with no NULL key then goes through findBatch. An
// ordinal is noGroup for a row with a NULL key (which never joins, and takes
// no group of its own), one that a predicate of preds does not hold on, or
// one whose in is noGroup, when in is set.
func (s *source) keyOrds(t *groupTable, insert bool, k, n int, preds, keys []qgm.Expr, in []uint32) ([]uint32, error) {
	ords, kc, set := make([]uint32, n), make([]keyCol, len(keys)), allInts(len(keys))
	for i := range ords {
		ords[i] = noGroup
	}
	var hash [stripRows]uint64
	var got [stripRows]uint32
	err := Filter(s.dimQs[k], s.dims[k].chunks, s.ectx.scalars, preds, keys, s.ev.obsv, func(_ *storage.Chunk, at int, sel []int32, vals []*sqltypes.Vec) error {
		eachRun(len(sel), func(i int) bool {
			for _, v := range vals {
				if v.IsNull(i) {
					return true
				}
			}
			return in != nil && in[at+int(sel[i])] == noGroup
		}, func(lo, m int) {
			for j, v := range vals {
				kc[j].load(v, lo, m)
			}
			t.findBatch(kc, set, hash[:m], got[:m], insert)
			for i, g := range got[:m] {
				ords[at+int(sel[lo+i])] = g
			}
		})
		return nil
	})
	return ords, err
}

// eachRun calls f(lo, m) for each run of rows lo to lo+m-1, within 0 to n-1,
// on none of which skip holds, of at most stripRows rows.
func eachRun(n int, skip func(i int) bool, f func(lo, m int)) {
	for lo := 0; lo < n; {
		if skip(lo) {
			lo++
			continue
		}
		m := 1
		for lo+m < n && m < stripRows && !skip(lo+m) {
			m++
		}
		f(lo, m)
		lo += m
	}
}

// compile lowers a sink expression to a kernel over the tuples the worker
// yields (srcWorker.cur): the fact chunk's rows, or the joined chunk's.
func (s *source) compile(e qgm.Expr) vecKernel {
	return s.vc.compileScalar(s.onJoined(s.unfuse(e)))
}

// compileKey is compile for a grouping expression. A bare reference to a
// typed string column of a dimension compiles to the column's codes instead,
// returned with their dictionary, which groupChunks decodes: the sink then
// groups small ints, which its table indexes directly.
func (s *source) compileKey(e qgm.Expr) (vecKernel, *sqltypes.Vec) {
	if cr, isRef := s.unfuse(e).(*qgm.ColRef); isRef && cr.Q != nil {
		if k := s.operand(cr.Q.ID); k >= 0 && cr.Col >= 0 && cr.Col < len(s.dimQs[k].Box.Cols) {
			ref, c := s.joined(k, cr.Col, true)
			return s.vc.compileScalar(ref), c.dict
		}
	}
	return s.compile(e), nil
}

// unfuse rewrites e, over a fused SELECT, onto that SELECT's quantifiers: a
// reference to its column c becomes its expression for c (expressions are
// immutable, so sharing is fine).
func (s *source) unfuse(e qgm.Expr) qgm.Expr {
	q := s.fused
	if q == nil {
		return e
	}
	return qgm.MapExpr(e, func(x qgm.Expr) qgm.Expr {
		cr, isRef := x.(*qgm.ColRef)
		switch {
		case !isRef || cr.Q == nil || cr.Q.ID != q.ID:
			return x
		case cr.Col < 0 || cr.Col >= len(q.Box.Cols):
			return &qgm.ColRef{}
		}
		return q.Box.Cols[cr.Col].Expr
	})
}

// onJoined rewrites e, in a join, onto the joined chunk, which takes the fact
// quantifier's place: a column of an operand becomes the fact's column of
// that number in the joined chunk, added on first use. A reference past an
// operand's columns becomes an unbound one, for the interpreter's error.
func (s *source) onJoined(e qgm.Expr) qgm.Expr {
	if len(s.dims) == 0 {
		return e
	}
	return qgm.MapExpr(e, func(x qgm.Expr) qgm.Expr {
		cr, isRef := x.(*qgm.ColRef)
		if !isRef || cr.Q == nil {
			return x
		}
		src, q := s.operand(cr.Q.ID), s.fact
		switch {
		case src == srcBeyond:
			return x
		case src >= 0:
			q = s.dimQs[src]
		}
		if cr.Col < 0 || cr.Col >= len(q.Box.Cols) {
			return &qgm.ColRef{}
		}
		ref, _ := s.joined(src, cr.Col, false)
		return ref
	})
}

// joined returns the joined chunk's column of column col of operand src, and
// its joinCol, added on first use: with coded, the column's codes when it is
// a dimension's typed string column.
func (s *source) joined(src, col int, coded bool) (*qgm.ColRef, *joinCol) {
	i := slices.IndexFunc(s.jcols, func(c joinCol) bool { return c.src == src && c.col == col && (c.dict != nil) == coded })
	if i < 0 {
		c := joinCol{src: src, col: col}
		if src >= 0 {
			c.dim = s.dims[src].column(col)
		}
		if coded && c.dim.Kind() == sqltypes.KindString && !c.dim.Generic() {
			c.dim, c.dict = s.dims[src].codes(c.dim)
		}
		i, s.jcols = len(s.jcols), append(s.jcols, c)
	}
	return &qgm.ColRef{Q: s.fact, Col: i}, &s.jcols[i]
}

// Filter runs preds (a conjunction) and exprs over chunks, the rows of
// quantifier q, on the kernels a box compiles them to, with scalars the
// values of the scalar subqueries they read: what those do not lower is
// lifted, and counted on o, as in a box. For each chunk with rows where every
// predicate is True it calls f with the chunk, the position of its first row,
// those rows, in order, and exprs' vectors aligned with them, valid until f
// returns. It stops at the first error. DML finds its rows and
// computes their SET values here, and a star join builds its dimensions.
func Filter(q *qgm.Quantifier, chunks []*storage.Chunk, scalars map[int]sqltypes.Value, preds, exprs []qgm.Expr, o *obs.Observer,
	f func(c *storage.Chunk, at int, sel []int32, vals []*sqltypes.Vec) error) error {
	ectx := &exprCtx{scalars: scalars}
	ectx.setSlot(q.ID, 0)
	vc := vecCompiler{ev: &evaluator{obsv: o}, ectx: ectx, baseQID: q.ID}
	filters, kernels := make([]vecFilter, len(preds)), make([]vecKernel, len(exprs))
	for i, p := range preds {
		filters[i] = vc.compileFilter(p)
	}
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
			err = f(c, at, cs.live(), vals)
		}
		if err != nil {
			return err
		}
		at += c.Len()
	}
	return nil
}

// starDim is one dimension of a join: its chunks, what it is keyed on — the
// fact (via = srcFact), whose key kernels are evaluated per chunk, or an
// earlier dimension via, whose row r finds key ordinal viaOrd[r] — and a
// groupTable of its distinct keys, with each key's rows chained in row order:
// head[g] is the first row of the key with ordinal g, next[r] the one after
// row r, -1 after the last. Rows failing the dimension's local predicates or
// carrying a NULL key are in no chain, so a NULL key finds nothing (NULL join
// keys never match, as in hashJoin). A dimension with no key has one, the
// empty one, which every fact row finds. Read-only once built: workers probe
// it concurrently.
type starDim struct {
	chunks     []*storage.Chunk
	ords       []uint32 // per row: the ordinal of its key, noGroup when it is in no chain
	via        int
	keyKs      []vecKernel
	viaOrd     []uint32
	set        []int // all the key columns, in order
	table      *groupTable
	head, next []int32
}

// first returns the first row of d that joins fact row i of the strip, whose
// key ordinals are ords, or, when d is keyed on an earlier dimension, that
// one's current row (row[d.via]); -1 when none does.
func (d *starDim) first(ords []uint32, i int, row []int32) int32 {
	if d.via >= 0 {
		ords, i = d.viaOrd, int(row[d.via])
	}
	if ords[i] == noGroup {
		return -1
	}
	return d.head[ords[i]]
}

// codes returns v, a typed string column of d, coded: per row of d in some
// chain, the ordinal of its value among those rows' distinct values, in row
// order (0 on the other rows, which no tuple reads), and the dictionary that
// maps each code back to its value, the value of its first such row. A key
// column of codes thus groups exactly as one of values and gets the same
// representatives, and only the values that can join take a code.
func (d *starDim) codes(v *sqltypes.Vec) (codes, dict *sqltypes.Vec) {
	codes, dict = new(sqltypes.Vec), new(sqltypes.Vec)
	words := codes.RefillInts(sqltypes.KindInt, v.Len())
	t, keys := newGroupTable(1, nil, v.Len(), true), make([]keyCol, 1)
	var hash [stripRows]uint64
	var ords [stripRows]uint32
	eachRun(len(d.ords), func(i int) bool { return d.ords[i] == noGroup }, func(lo, n int) {
		keys[0].load(v, lo, n)
		t.findBatch(keys, []int{0}, hash[:n], ords[:n], true)
		for i, g := range ords[:n] {
			words[lo+i] = int64(g)
		}
	})
	t.keyColumn(dict, 0, 0, t.n)
	codes.Seal()
	dict.Seal()
	return codes, dict
}

// column returns column c of the dimension over all its rows, indexed by row
// number: its one chunk's own, or its chunks' concatenated once.
func (d *starDim) column(c int) *sqltypes.Vec {
	if len(d.chunks) == 1 {
		return d.chunks[0].Col(c)
	}
	v := new(sqltypes.Vec)
	for _, ch := range d.chunks {
		v.AppendVec(ch.Col(c), 0, ch.Len())
	}
	v.Seal()
	return v
}

// open fetches the fact chunks: the child's relation, or the base table's,
// whose scan waits until here.
func (s *source) open() (err error) {
	if s.fact == nil {
		return nil
	}
	if s.rel == nil {
		s.rel, err = s.ev.evalBox(s.fact.Box)
	}
	if err == nil {
		s.chunks, s.total = s.rel.chunks, s.rel.n
	}
	return err
}

// srcWorker is one worker's cursor over the source: the fact chunk's state
// and, for a join, the probe scratch (made by the first chunk; the key columns
// are the fact state's) and the joined chunk's state and column scratch. The
// chunk states are objects of their own because kernels hold them; the worker
// around them then stays on the sink's stack, as long as worker is small
// enough to inline.
type srcWorker struct {
	s        *source
	cs       *chunkState       // the fact chunk's
	cur      *chunkState       // the sink's kernels' input: cs, or a join's js
	js       *chunkState       // the joined chunk's
	jv       []sqltypes.Vec    // the joined chunk's gathered columns
	kv       [][]*sqltypes.Vec // per dim: fact key vectors for the current chunk
	ords     [][]uint32        // per dim, per fact row of the strip: ordinal of the matching dimension key
	row      []int32           // per dim: its current row
	at       []int32           // per dim: its next row that joins the fact row and the earlier dims' rows, -1: none
	fdi      []int32           // per tuple: its fact row
	ddi      [][]int32         // per dim, per tuple: dim row number
	expanded bool              // some fact row matched more than once
}

func (s *source) worker() *srcWorker {
	cs := &chunkState{vecs: make([]*sqltypes.Vec, s.vc.slots)}
	return &srcWorker{s: s, cs: cs, cur: cs}
}

// next moves the worker to chunk c and returns its tuple count: the rows the
// fact-local filters keep, joined against every dimension and kept by the
// residual predicates. A sink's kernels never run on a row a filter or the
// join removed. Tuple order is the row path's join order: fact-row major,
// earlier dimensions outer, the last dimension varying fastest. Join output is
// charged to the budget as it is built, one per tuple, a run of the last
// dimension's rows at a time, so a cross join trips MaxRows or a cancellation
// within one fact row's tuples.
func (w *srcWorker) next(c *storage.Chunk, chg *charger) (int, error) {
	s, cs := w.s, w.cs
	nd := len(s.dims)
	if err := cs.narrow(c, s.filters); err != nil || cs.n() == 0 || nd == 0 {
		return cs.n(), err
	}
	if w.js == nil {
		w.js = &chunkState{cols: make([]*sqltypes.Vec, len(s.jcols)), vecs: make([]*sqltypes.Vec, s.vc.slots)}
		w.jv, w.cur = make([]sqltypes.Vec, len(s.jcols)), w.js
		w.kv, w.ords, w.row, w.at, w.ddi = make([][]*sqltypes.Vec, nd), make([][]uint32, nd), make([]int32, nd), make([]int32, nd), make([][]int32, nd)
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
	w.fdi, w.expanded = w.fdi[:0], false
	for k := range w.ddi {
		w.ddi[k] = w.ddi[k][:0]
	}
	var hash [stripRows]uint64 // findBatch's scratch stays on this stack
	last, rows := nd-1, cs.live()
	for lo, n := 0, len(rows); lo < n; lo += stripRows {
		// A strip of fact rows at a time, one lookup-only batch call per
		// dimension keyed on the fact turns the fact keys into dimension key
		// ordinals.
		m := min(stripRows, n-lo)
		for k := range s.dims {
			if s.dims[k].via == srcFact {
				for j, v := range w.kv[k] {
					cs.keys[j].load(v, lo, m)
				}
				w.ords[k] = resize(w.ords[k], m)
				s.dims[k].table.findBatch(cs.keys, s.dims[k].set, hash[:m], w.ords[k], false)
			}
		}
	facts:
		for i := 0; i < m; i++ {
			for k := range s.dims {
				if s.dims[k].via == srcFact && w.ords[k][i] == noGroup {
					continue facts
				}
			}
			// Depth first over the dimensions: each steps through its rows
			// that join, and the last one's become tuples, charged a run at a
			// time.
			ri, first := rows[lo+i], len(w.fdi)
			w.at[0] = s.dims[0].first(w.ords[0], i, w.row)
			for k := 0; k >= 0; {
				d := &s.dims[k]
				switch r := w.at[k]; {
				case r < 0:
					k--
				case k < last:
					w.row[k], w.at[k] = r, d.next[r]
					k++
					w.at[k] = s.dims[k].first(w.ords[k], i, w.row)
				default:
					run := len(w.fdi)
					for ; r >= 0; r = d.next[r] {
						w.fdi = append(w.fdi, ri)
						for j := range k {
							w.ddi[j] = append(w.ddi[j], w.row[j])
						}
						w.ddi[k] = append(w.ddi[k], r)
					}
					if err := chg.checkpoint(len(w.fdi) - run); err != nil {
						return 0, err
					}
					k--
				}
			}
			w.expanded = w.expanded || len(w.fdi)-first > 1
		}
	}
	if len(w.fdi) == 0 {
		return 0, nil
	}
	return w.gather()
}

// gather makes the current tuples the joined chunk and narrows it by the
// residual predicates. When every fact row of the chunk joined once, in order,
// a fact column is the storage vector itself.
func (w *srcWorker) gather() (int, error) {
	js, n := w.js, len(w.fdi)
	whole := !w.expanded && n == w.cs.rows
	for i, c := range w.s.jcols {
		switch {
		case c.src >= 0:
			w.jv[i].Gather(c.dim, w.ddi[c.src])
			js.cols[i] = &w.jv[i]
		case whole:
			js.cols[i] = w.cs.cols[c.col]
		default:
			w.jv[i].Gather(w.cs.cols[c.col], w.fdi)
			js.cols[i] = &w.jv[i]
		}
	}
	js.rows, js.sel = n, nil
	err := js.filter(w.s.residual)
	return js.n(), err
}
