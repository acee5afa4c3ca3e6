package exec

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// This file is the vectorized expression layer and the projection sink.
// Expressions are lowered once per box to kernels that run per chunk:
// predicate filters narrow a selection vector, scalar kernels produce one
// sqltypes.Vec per expression per chunk. Semantics are pinned to the
// reference: typed fast loops cover the common kinds and delegate every error
// (and every odd-kind element) to the same sqltypes functions the interpreter
// calls, a disjunction of key tuples (x IN (…), a scoped recompute's group
// keys) is a hash probe, and any other expression shape the vector compiler
// does not handle is "lifted" — the chunk's rows are materialized one at a
// time into a scratch binding and the tree interpreter (expr.go) evaluates the
// expression per element. Where the chunks come from — a scan, a child box's
// relation, the joined chunk of a join — is the source's business (source.go);
// what happens to the vectors is the sink's: evalSelectVec below projects them
// into output chunks, evalGroupByVec (vecgroupby.go) aggregates them. Every
// SELECT and GROUP BY box runs here unless Config.Interpret asks for the
// reference path, and so do a star join's dimension builds and DML's WHERE
// (Filter); lifts are counted (exec.vector.lifted), and only lift and
// rowFilter call the interpreter.
//
// Intended divergences from the reference (documented in DESIGN.md §13):
// within a chunk, predicates run predicate-major rather than row-major, so
// when several rows would raise evaluation errors a different row's error may
// surface first, and a row eliminated by an earlier conjunct never evaluates
// later conjuncts (the reference surfaces an error from a later conjunct even
// when an earlier one was Unknown). A dimension's local predicates and keys
// run on all its rows while it is hashed, joined or not, a key even where
// another is NULL. The parity suites pin that on error-free workloads results
// are identical, serially bit-for-bit.

// Observability counters for the chunk pipeline.
const (
	CtrVecBoxes  = "exec.vector.boxes"  // boxes evaluated on the pipeline, a GROUP BY's fused SELECT child among them
	CtrVecLifted = "exec.vector.lifted" // expressions evaluated a row at a time by the interpreter
	// A GROUP BY's tables, one per grouping set, by the index each ended with.
	CtrGroupDirect = "exec.group.direct"
	CtrGroupHashed = "exec.group.hashed"
	CtrGroupCoded  = "exec.group.coded" // a GROUP BY's key columns grouped by their codes (source.compileKey)
)

// Result evaluation modes reported by Result.Mode / EXPLAIN: the reference
// path under Config.Interpret, the pipeline otherwise.
const (
	ModeVectorized  = "vectorized"
	ModeInterpreted = "interpreted"
)

// chunkState is one worker's cursor over one chunk: its columns — a storage
// chunk's, or a join's joined chunk (source.go) — and row count, the current
// selection (nil = all rows live), and the worker's scratch. Kernels evaluate
// over the selection in dense order.
//
// Scratch ownership: every compiled kernel node owns one slot of vecs
// (vecCompiler.newSlot) and refills it on each call, so a kernel's result is
// valid until that kernel's next call on this worker — long enough for the
// chunk, never longer. Whatever outlives the chunk (a group's cells, output
// rows, DISTINCT pairs) copies out. Slots grow to the live row count on
// first use; an unfiltered box never allocates selBuf, a box without lifted
// kernels never allocates bd, one without a probe never allocates keys.
type chunkState struct {
	cols   []*sqltypes.Vec // the chunk's columns: sealed storage vectors, or a joined chunk's
	rows   int             // the chunk's row count
	sel    []int32         // live row indices, dense-ordered; nil = all of [0, rows)
	selBuf []int32         // backing of sel, reused chunk after chunk
	all    []int32         // live's whole-chunk selection of a chunk longer than chunkRows
	vecs   []*sqltypes.Vec // kernel output slots, each allocated by its first use
	bd     binding         // a lifted expression's binding: one row of scratch
	keys   []keyCol        // a probe's key columns: a key set's or a star join's
	nulls  sqltypes.Bitmap // a comparison's NULL rows, by dense index
}

// keyCols returns the probe's key-column scratch, at least nk columns long.
func (cs *chunkState) keyCols(nk int) []keyCol {
	if len(cs.keys) < nk {
		cs.keys = append(cs.keys, make([]keyCol, nk-len(cs.keys))...)
	}
	return cs.keys
}

// slot returns scratch slot i. Many are never asked for: a column reference
// over an unfiltered chunk answers with the column itself.
func (cs *chunkState) slot(i int) *sqltypes.Vec {
	if cs.vecs[i] == nil {
		cs.vecs[i] = new(sqltypes.Vec)
	}
	return cs.vecs[i]
}

// narrow moves cs to storage chunk c and narrows its selection by filters.
func (cs *chunkState) narrow(c *storage.Chunk, filters []vecFilter) error {
	cs.cols = slices.Grow(cs.cols[:0], c.Width())
	for i := range c.Width() {
		cs.cols = append(cs.cols, c.Col(i))
	}
	cs.rows, cs.sel = c.Len(), nil
	return cs.filter(filters)
}

// filter narrows the selection by each filter in turn, stopping once none is
// left.
func (cs *chunkState) filter(filters []vecFilter) error {
	for _, f := range filters {
		if err := f(cs); err != nil || cs.n() == 0 {
			return err
		}
	}
	return nil
}

// n returns the live (selected) row count.
func (cs *chunkState) n() int {
	if cs.sel != nil {
		return len(cs.sel)
	}
	return cs.rows
}

// live returns the selection's chunk rows, in dense order: sel, or every row.
func (cs *chunkState) live() []int32 {
	switch {
	case cs.sel != nil:
		return cs.sel
	case cs.rows <= len(chunkRows):
		return chunkRows[:cs.rows]
	case len(cs.all) < cs.rows: // a joined chunk of more tuples than a storage chunk has rows
		cs.all = iota32(cs.rows)
	}
	return cs.all[:cs.rows]
}

// chunkRows is every row of a storage chunk, 0 to storage.ChunkRows-1; read
// by every worker, written by none.
var chunkRows = iota32(storage.ChunkRows)

// iota32 returns 0, 1, …, n-1.
func iota32(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// materialize fills the scratch binding with chunk row ri, for a lifted
// expression.
func (cs *chunkState) materialize(ri int) binding {
	if cs.bd == nil {
		cs.bd = binding{make([]sqltypes.Value, len(cs.cols))}
	}
	for j, v := range cs.cols {
		cs.bd[0][j] = v.Value(ri)
	}
	return cs.bd
}

// selOut returns the empty buffer a filter appends surviving row indices to.
// It is the backing of the current selection: a survivor is written at or
// before the position it was read from, so filters compact in place.
func (cs *chunkState) selOut() []int32 {
	if cs.selBuf == nil {
		cs.selBuf = make([]int32, 0, cs.n())
	}
	return cs.selBuf[:0]
}

// setSel installs a filter's survivors as the selection. A filter that drops
// nothing from a whole chunk leaves sel nil, so column references stay
// zero-copy.
func (cs *chunkState) setSel(out []int32) {
	cs.selBuf = out[:0]
	if cs.sel != nil || len(out) < cs.rows {
		cs.sel = out
	}
}

// emit hands v, a kernel's result for the current chunk, over to an output
// chunk. A storage column is sealed and shared as it is; anything else — one
// of this worker's scratch slots, a joined chunk's column — gives its payload
// away and starts the next chunk empty. A joined chunk's column is read by
// every kernel that references it, so a sink emits only once every kernel of
// the chunk has run.
func (cs *chunkState) emit(v *sqltypes.Vec) sqltypes.Vec {
	out := *v
	if !v.Sealed() {
		*v = sqltypes.Vec{}
	}
	return out
}

// vecKernel evaluates one scalar expression over a chunk's selection,
// producing a vector of length chunkState.n() aligned with the selection.
type vecKernel func(cs *chunkState) (*sqltypes.Vec, error)

// vecFilter applies one predicate conjunct, narrowing the selection to rows
// where it is True (SQL filter semantics: False and Unknown both drop).
type vecFilter func(cs *chunkState) error

// vecCompiler lowers expressions over one quantifier — the one whose chunks
// the source scans — to vector kernels. ectx carries the scalar-subquery
// values and that quantifier's slot 0, so a lifted expression resolves
// references exactly as the row path would.
type vecCompiler struct {
	ev      *evaluator
	ectx    *exprCtx
	baseQID int
	slots   int // scratch slots handed out so far; sizes chunkState.vecs
}

// newSlot reserves a chunkState.vecs slot for one kernel node's output.
func (vc *vecCompiler) newSlot() int {
	vc.slots++
	return vc.slots - 1
}

// lift hands an expression to the interpreter, evaluated per selected row over
// a materialized scratch binding. Correct for every shape; counted.
func (vc *vecCompiler) lift(e qgm.Expr) vecKernel {
	vc.ev.obsv.Add(CtrVecLifted, 1)
	ectx, slot := vc.ectx, vc.newSlot()
	return func(cs *chunkState) (*sqltypes.Vec, error) {
		out := cs.slot(slot)
		out.Reset()
		for _, ri := range cs.live() {
			v, err := ectx.evalScalar(e, cs.materialize(int(ri)))
			if err != nil {
				return nil, err
			}
			out.AppendValue(v)
		}
		return out, nil
	}
}

// compileScalar lowers e to a vecKernel. Unsupported shapes lift; there is no
// failure mode — by construction every expression evaluates with row-path
// semantics.
func (vc *vecCompiler) compileScalar(e qgm.Expr) vecKernel {
	switch t := e.(type) {
	case *qgm.ColRef:
		if t.Q == nil {
			return vc.lift(e)
		}
		if v, ok := vc.ectx.scalars[t.Q.ID]; ok {
			return vc.constKernel(v)
		}
		if t.Q.ID != vc.baseQID {
			return vc.lift(e) // out-of-scope reference: row path's exact error
		}
		col, slot := t.Col, vc.newSlot()
		return func(cs *chunkState) (*sqltypes.Vec, error) {
			if col >= len(cs.cols) {
				return nil, fmt.Errorf("exec: column %d out of range (row width %d)", col, len(cs.cols))
			}
			src := cs.cols[col]
			if cs.sel == nil {
				return src, nil // the column itself
			}
			out := cs.slot(slot)
			out.Gather(src, cs.sel)
			return out, nil
		}

	case *qgm.Const:
		return vc.constKernel(t.Peek())

	case *qgm.Call:
		return vc.compileCall(t)

	case *qgm.Bin:
		switch t.Op {
		case "||", "+", "-", "*", "/", "%":
			l := vc.compileScalar(t.L)
			r := vc.compileScalar(t.R)
			op, slot := t.Op, vc.newSlot()
			return func(cs *chunkState) (*sqltypes.Vec, error) {
				lv, err := l(cs)
				if err != nil {
					return nil, err
				}
				rv, err := r(cs)
				if err != nil {
					return nil, err
				}
				out := cs.slot(slot)
				return out, vecBinArith(op, lv, rv, out)
			}
		}
		// Comparison/logical operators in scalar position are rare; lift.
		return vc.lift(e)

	default:
		// CASE, NOT, IS NULL, LIKE, Agg (error), unknown nodes: lift.
		return vc.lift(e)
	}
}

// constKernel broadcasts a constant to the selection length. The worker
// splats it once, into one slot, at the longest length asked for so far; each
// call re-slices that into a second slot.
func (vc *vecCompiler) constKernel(v sqltypes.Value) vecKernel {
	full, view := vc.newSlot(), vc.newSlot()
	return func(cs *chunkState) (*sqltypes.Vec, error) {
		n := cs.n()
		whole, out := cs.slot(full), cs.slot(view)
		if whole.Len() < n {
			whole.Splat(v, n)
		}
		*out = whole.Prefix(n)
		return out, nil
	}
}

// intClass reports whether v is a typed vector backed by the Ints payload.
func intClass(v *sqltypes.Vec) bool {
	if v.Generic() {
		return false
	}
	switch v.Kind() {
	case sqltypes.KindInt, sqltypes.KindBool, sqltypes.KindDate:
		return true
	}
	return false
}

// compileCall lowers year/month/day over an Ints-payload argument to an
// integer loop, one per part (the date encoding is yyyymmdd), that runs over
// NULLs' payloads too and takes the argument's NULLs from its bitmap; other
// kinds take the per-element route through the same Value accessors as the
// row kernel, so panics and NULL handling are identical. qgm admits no other
// function.
func (vc *vecCompiler) compileCall(t *qgm.Call) vecKernel {
	name := t.Name
	arg := vc.compileScalar(t.Args[0])
	slot := vc.newSlot()
	return func(cs *chunkState) (*sqltypes.Vec, error) {
		av, err := arg(cs)
		if err != nil {
			return nil, err
		}
		n := av.Len()
		out := cs.slot(slot)
		if intClass(av) {
			ints, ds := out.RefillInts(sqltypes.KindInt, n), av.Ints()[:n]
			switch name {
			case "year":
				for i, d := range ds {
					ints[i] = d / 10000
				}
			case "month":
				for i, d := range ds {
					ints[i] = d / 100 % 100
				}
			default:
				for i, d := range ds {
					ints[i] = d % 100
				}
			}
			out.MarkNulls(av.Nulls())
			return out, nil
		}
		if isAllNull(av) {
			out.Splat(sqltypes.Null, n)
			return out, nil
		}
		// Odd argument kinds: reconstruct each Value and take the row path's
		// exact accessors (DateYear et al. panic on non-integer kinds, same as
		// the row kernel would).
		out.Reset()
		for i := 0; i < n; i++ {
			v := av.Value(i)
			if v.IsNull() {
				out.AppendNull()
				continue
			}
			x, _ := datePart(name, v)
			out.AppendValue(x)
		}
		return out, nil
	}
}

func isInt(v *sqltypes.Vec) bool {
	return !v.Generic() && v.Kind() == sqltypes.KindInt
}

func isNumericVec(v *sqltypes.Vec) bool {
	return !v.Generic() && (v.Kind() == sqltypes.KindInt || v.Kind() == sqltypes.KindFloat)
}

func isAllNull(v *sqltypes.Vec) bool {
	return !v.Generic() && v.Kind() == sqltypes.KindNull
}

// floatAt coerces an element of a numeric vector to float64 (caller has
// checked non-NULL).
func floatAt(v *sqltypes.Vec, i int) float64 {
	if v.Kind() == sqltypes.KindFloat {
		return v.Floats()[i]
	}
	return float64(v.Ints()[i])
}

// vecBinArith evaluates a binary arithmetic/concat operator element-wise into
// out (a scratch slot distinct from both operands). Typed pairs run dedicated
// loops: +, - and * over two numeric payloads one loop per operator, chosen
// once per chunk (arith), with the operands' NULLs marked from their bitmaps;
// / and % test each element for NULL and for a zero divisor; || concatenates
// two string payloads. Every other pairing — and every error case — delegates
// per element to the sqltypes function the row kernel uses, so results, NULL
// propagation and error messages match the row path exactly.
func vecBinArith(op string, a, b, out *sqltypes.Vec) error {
	n := a.Len()
	fn := binOpFn(op)

	// NULL in, NULL out holds for every operator here: an all-NULL side makes
	// the whole result NULL.
	if isAllNull(a) || isAllNull(b) {
		out.Splat(sqltypes.Null, n)
		return nil
	}

	numeric := isNumericVec(a) && isNumericVec(b)
	switch {
	case numeric && (op == "+" || op == "-" || op == "*"):
		// Computed over NULLs' payloads too; the bitmaps then mark them.
		switch {
		case isInt(a) && isInt(b):
			arith(op, out.RefillInts(sqltypes.KindInt, n), a.Ints(), b.Ints())
		case isInt(a):
			arith(op, out.RefillFloats(n), a.Ints(), b.Floats())
		case isInt(b):
			arith(op, out.RefillFloats(n), a.Floats(), b.Ints())
		default:
			arith(op, out.RefillFloats(n), a.Floats(), b.Floats())
		}
		out.MarkNulls(a.Nulls())
		out.MarkNulls(b.Nulls())
		return nil

	case (op == "/" || op == "%") && isInt(a) && isInt(b):
		ints, x, y := out.RefillInts(sqltypes.KindInt, n), a.Ints(), b.Ints()
		for i := range ints {
			switch {
			case a.IsNull(i) || b.IsNull(i):
				out.SetNull(i)
			case y[i] == 0:
				_, err := fn(a.Value(i), b.Value(i))
				return err
			case op == "/":
				ints[i] = x[i] / y[i]
			default:
				ints[i] = x[i] % y[i]
			}
		}
		return nil

	case numeric && op == "/": // at least one side is float: float result
		fs := out.RefillFloats(n)
		for i := range fs {
			switch {
			case a.IsNull(i) || b.IsNull(i):
				out.SetNull(i)
			case floatAt(b, i) == 0:
				_, err := fn(a.Value(i), b.Value(i))
				return err
			default:
				fs[i] = floatAt(a, i) / floatAt(b, i)
			}
		}
		return nil

	case op == "||" && !a.Generic() && !b.Generic() &&
		a.Kind() == sqltypes.KindString && b.Kind() == sqltypes.KindString:
		ss := out.RefillStrings(n)
		for i := range ss {
			if a.IsNull(i) || b.IsNull(i) {
				out.SetNull(i)
				continue
			}
			ss[i] = a.Strs()[i] + b.Strs()[i]
		}
		return nil
	}

	// Mixed or odd kinds: per-element delegation.
	vals := out.RefillGeneric(n)
	for i := 0; i < n; i++ {
		v, err := fn(a.Value(i), b.Value(i))
		if err != nil {
			return err
		}
		vals[i] = v
	}
	return nil
}

// arith fills z with x op y, for op one of +, - and *: one loop per operator,
// each element converted to z's type first (an int is added to a float as the
// float64 sqltypes.Add makes of it; int results wrap).
func arith[Z, X, Y int64 | float64](op string, z []Z, x []X, y []Y) {
	x, y = x[:len(z)], y[:len(z)]
	switch op {
	case "+":
		for i := range z {
			z[i] = Z(x[i]) + Z(y[i])
		}
	case "-":
		for i := range z {
			z[i] = Z(x[i]) - Z(y[i])
		}
	default:
		for i := range z {
			z[i] = Z(x[i]) * Z(y[i])
		}
	}
}

// compileFilter lowers a predicate conjunct to a selection-narrowing filter.
// ANDs split into sequential filters (keep-only-True composes); comparisons
// get typed loops; a disjunction of key tuples probes a hash table of them;
// everything else is lifted, evaluated by the interpreter per selected row.
func (vc *vecCompiler) compileFilter(p qgm.Expr) vecFilter {
	if bin, ok := p.(*qgm.Bin); ok {
		switch bin.Op {
		case "AND":
			l := vc.compileFilter(bin.L)
			r := vc.compileFilter(bin.R)
			return func(cs *chunkState) error {
				if err := l(cs); err != nil {
					return err
				}
				if cs.n() == 0 {
					return nil
				}
				return r(cs)
			}
		case "=", "<>", "<", "<=", ">", ">=":
			return vc.compileCmpFilter(bin)
		}
	}
	if exprs, consts, ok := qgm.AsInList(p); ok {
		if f := vc.compileKeySet(p, exprs, consts); f != nil {
			return f
		}
	}
	// Lifted predicate: OR, NOT, IS NOT NULL, LIKE, scalar-in-pred, etc.
	vc.ev.obsv.Add(CtrVecLifted, 1)
	return vc.rowFilter(p)
}

// rowFilter runs predicate p through the interpreter, a selected row at a
// time.
func (vc *vecCompiler) rowFilter(p qgm.Expr) vecFilter {
	ectx := vc.ectx
	return func(cs *chunkState) error {
		rows, out := cs.live(), cs.selOut()
		for _, ri := range rows {
			tv, err := ectx.evalPred(p, cs.materialize(int(ri)))
			if err != nil {
				return err
			}
			if tv == sqltypes.True {
				out = append(out, ri)
			}
		}
		cs.setSel(out)
		return nil
	}
}

// compileKeySet lowers p, a disjunction of key tuples (qgm.AsInList: the
// desugared x IN (…), a scoped recompute's group keys), to a semi-join: the
// tuples are the keys of a groupTable built here, once per box, and a chunk
// keeps the rows whose key is in it — a lookup-only findBatch a strip at a
// time, as the star probe does. An IS NULL term is a NULL cell. KeyCell
// equality is Compare's, so the probe decides what the predicate does
// wherever no term fails: each key column's constants must compare with each
// other (sqltypes.Comparable), else p is not compiled here (nil). Per chunk, a
// key vector must be typed of a kind that compares with its column's
// constants, or all NULL (any vector will do for a column of IS NULL terms
// only), and every key kernel must succeed (the interpreter stops at a tuple's
// first false term; the kernels do not); any other chunk runs p a row at a
// time, counted as one lift per box.
func (vc *vecCompiler) compileKeySet(p qgm.Expr, exprs []qgm.Expr, consts []*qgm.Const) vecFilter {
	nk := len(exprs)
	kinds := make([]sqltypes.Kind, nk) // KindNull while a column has no constant
	for i, c := range consts {
		switch j := i % nk; {
		case c == nil:
		case kinds[j] != sqltypes.KindNull && !sqltypes.Comparable(kinds[j], c.Kind()):
			return nil
		default:
			kinds[j] = c.Kind()
		}
	}
	table, key := newGroupTable(nk, nil, len(consts)/nk, true), make([]sqltypes.Value, nk)
	for lo := 0; lo < len(consts); lo += nk {
		for j, c := range consts[lo : lo+nk] {
			if key[j] = sqltypes.Null; c != nil {
				key[j] = c.Peek()
			}
		}
		table.find(key, true)
	}
	kernels := make([]vecKernel, nk)
	for j, e := range exprs {
		kernels[j] = vc.compileScalar(e)
	}
	set, rows := allInts(nk), vc.rowFilter(p)
	var lifted atomic.Bool
	return func(cs *chunkState) error {
		keys := cs.keyCols(nk)
		for j, kk := range kernels {
			v, err := kk(cs)
			if err != nil || kinds[j] != sqltypes.KindNull && (v.Generic() || !sqltypes.Comparable(v.Kind(), kinds[j]) && !isAllNull(v)) {
				if !lifted.Swap(true) {
					vc.ev.obsv.Add(CtrVecLifted, 1)
				}
				return rows(cs)
			}
			keys[j].vec = v // loaded a strip at a time below
		}
		var hash [stripRows]uint64 // the strip's hashes and ordinals stay on this stack
		var ords [stripRows]uint32
		live, out := cs.live(), cs.selOut()
		for lo, n := 0, len(live); lo < n; lo += stripRows {
			m := min(stripRows, n-lo)
			for j := range nk {
				keys[j].load(keys[j].vec, lo, m)
			}
			table.findBatch(keys, set, hash[:m], ords[:m], false)
			for i, g := range ords[:m] {
				if g != noGroup {
					out = append(out, live[lo+i])
				}
			}
		}
		cs.setSel(out)
		return nil
	}
}

// compileCmpFilter lowers one comparison conjunct. The operand kernels run
// over the current selection; the filter keeps rows where the comparison is
// True (NULL operands are Unknown and drop). Kind dispatch happens once per
// chunk: typed int-class, float and string pairs run cmpRows's loop for the
// operator, an int and a float compare exactly (CompareIntFloat), and every
// other pairing — a generic vector, a pairing Compare rejects — delegates to
// Compare per element for the exact result or error. The typed loops find a
// NULL row by its bit in nullRows, the operands' bitmaps ORed.
func (vc *vecCompiler) compileCmpFilter(bin *qgm.Bin) vecFilter {
	l, r, op, want := vc.compileScalar(bin.L), vc.compileScalar(bin.R), bin.Op, cmpWant(bin.Op)
	return func(cs *chunkState) error {
		lv, err := l(cs)
		if err != nil {
			return err
		}
		rv, err := r(cs)
		if err != nil {
			return err
		}
		rows, out, nulls := cs.live(), cs.selOut(), cs.nullRows(lv.Nulls(), rv.Nulls())
		switch {
		case isAllNull(lv) || isAllNull(rv):
			// Comparison with NULL is Unknown everywhere: empty selection.

		case intClass(lv) && intClass(rv) && sqltypes.Comparable(lv.Kind(), rv.Kind()):
			// Int, date and bool payloads: the payload is the value.
			out = cmpRows(op, lv.Ints(), rv.Ints(), nulls, rows, out)

		case isNumericVec(lv) && isNumericVec(rv) && lv.Kind() == rv.Kind(): // two floats: two ints took the payload loop
			out = cmpRows(op, lv.Floats(), rv.Floats(), nulls, rows, out)

		case isNumericVec(lv) && isNumericVec(rv): // an int and a float, in either order
			ints, fs, sign := lv.Ints(), rv.Floats(), 1
			if lv.Kind() == sqltypes.KindFloat {
				ints, fs, sign = rv.Ints(), lv.Floats(), -1
			}
			for i, ri := range rows {
				if want[1+sign*sqltypes.CompareIntFloat(ints[i], fs[i])] && !nulls.Get(i) {
					out = append(out, ri)
				}
			}

		case !lv.Generic() && !rv.Generic() &&
			lv.Kind() == sqltypes.KindString && rv.Kind() == sqltypes.KindString:
			out = cmpRows(op, lv.Strs(), rv.Strs(), nulls, rows, out)

		default:
			// Mixed/odd kinds: Compare per element for exact semantics.
			for i, ri := range rows {
				x, y := lv.Value(i), rv.Value(i)
				if x.IsNull() || y.IsNull() {
					continue
				}
				c, err := sqltypes.Compare(x, y)
				if err != nil {
					return err
				}
				if want[1+c] {
					out = append(out, ri)
				}
			}
		}
		cs.setSel(out)
		return nil
	}
}

// cmpRows appends to out the row rows[i] of each i at which l[i] op r[i] is
// True: under sqltypes.Less's order, where a NaN equals only a NaN, with
// row i not NULL (its bit in nulls, which covers every row). The operator
// picks the loop, once per chunk; a loop calls no function value and takes no
// branch on a row's outcome: each row is written, and kept by advancing.
func cmpRows[T int64 | float64 | string](op string, l, r []T, nulls sqltypes.Bitmap, rows, out []int32) []int32 {
	n, k := len(l), len(out)
	r, rows, out = r[:n], rows[:n], slices.Grow(out, n)[:k+n]
	switch op {
	case "=":
		for i, x := range l {
			out[k] = rows[i]
			k += kept(x == r[i] || x != x && r[i] != r[i], nulls, i)
		}
	case "<>":
		for i, x := range l {
			out[k] = rows[i]
			k += kept(x != r[i] && (x == x || r[i] == r[i]), nulls, i)
		}
	case "<":
		for i, x := range l {
			out[k] = rows[i]
			k += kept(sqltypes.Less(x, r[i]), nulls, i)
		}
	case "<=":
		for i, x := range l {
			out[k] = rows[i]
			k += kept(!sqltypes.Less(r[i], x), nulls, i)
		}
	case ">":
		for i, x := range l {
			out[k] = rows[i]
			k += kept(sqltypes.Less(r[i], x), nulls, i)
		}
	default: // ">="
		for i, x := range l {
			out[k] = rows[i]
			k += kept(!sqltypes.Less(x, r[i]), nulls, i)
		}
	}
	return out[:k]
}

// kept is 1 when c holds and row i is not NULL, else 0.
func kept(c bool, nulls sqltypes.Bitmap, i int) int {
	b := 0
	if c {
		b = 1
	}
	return b &^ int(nulls[i>>6]>>(uint(i)&63))
}

// nullRows returns a bitmap of the live rows, by dense index, set where a or
// b is NULL: the worker's scratch, one word per 64 rows.
func (cs *chunkState) nullRows(a, b sqltypes.Bitmap) sqltypes.Bitmap {
	nb := resize(cs.nulls, (cs.n()+63)/64)
	clear(nb)
	for _, m := range [2]sqltypes.Bitmap{a, b} {
		for i, w := range m[:min(len(m), len(nb))] {
			nb[i] |= w
		}
	}
	cs.nulls = nb
	return nb
}

// evalSelectVec is the projection sink: the box's source yields each chunk's
// tuples, the output expressions evaluate over them, and the resulting vectors
// leave as one output chunk per input chunk — only what the filters and the
// join kept is ever materialized. Chunks partition across workers in order, so
// output order matches the serial row path.
func (ev *evaluator) evalSelectVec(b *qgm.Box) (*relation, error) {
	s, err := ev.planSource(b)
	if err != nil {
		return nil, err
	}
	kernels := make([]vecKernel, len(b.Cols))
	for i, c := range b.Cols {
		kernels[i] = s.compile(c.Expr)
	}
	if err := s.open(); err != nil {
		return nil, err
	}
	workers := ev.workersFor(s.total)
	parts := make([][]*storage.Chunk, max(workers, 1))
	err = ev.parallelChunks(len(s.chunks), workers, func(w, lo, hi int, chg *charger) error {
		sw, vecs := s.worker(), make([]*sqltypes.Vec, len(kernels))
		for _, c := range s.chunks[lo:hi] {
			n, err := sw.next(c, chg)
			if err != nil {
				return err
			}
			if n == 0 {
				continue
			}
			if err := chg.checkpoint(n); err != nil {
				return err
			}
			for i, k := range kernels {
				if vecs[i], err = k(sw.cur); err != nil {
					return err
				}
			}
			out := make([]sqltypes.Vec, len(kernels))
			for i, v := range vecs {
				if j := slices.Index(vecs[:i], v); j >= 0 {
					out[i] = out[j] // one joined column, output twice
				} else {
					out[i] = sw.cur.emit(v)
				}
			}
			parts[w] = append(parts[w], storage.NewChunk(n, out))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	chunks := parts[0]
	if workers > 1 {
		chunks = slices.Concat(parts...)
	}
	ev.obsv.Add(CtrVecBoxes, 1)
	return chunkRelation(chunks), nil
}
