package exec

import (
	"cmp"
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
// expression per element. Where the chunks come from — a scan, a star join, a
// child box's relation — is the source's business (source.go); what happens
// to the vectors is the sink's: evalSelectVec below projects them into output
// chunks, evalGroupByVec (vecgroupby.go) aggregates them.
//
// A box runs here unless its source declines it whole; a declined box runs on
// the reference path — the interpreter, serial — and every box does under
// Config.Interpret, which counts nothing. No statement of the benchmark's four
// workloads declines, so how fast a declined box runs is not measured
// anywhere. Lifts (exec.vector.lifted) and declines are counted. What
// declines, by counter — exec.vector.declined.<reason>, beside the total
// exec.vector.declined:
//
//	cross-join            a join operand no equality predicate ties to the first
//	non-equi-join         a predicate across operands other than first-side = other-side
//	dim-dim-join          an equality between two operands neither of which is the first
//	constant-predicate    a join with a predicate over no operand at all
//	mixed-source-expr     an output, grouping or argument expression over several operands
//	expr-beyond-child     an expression reaching outside the box, or an aggregate in a SELECT
//	dim-eval-error        a dimension expression failed on a row the join might have dropped
//	no-input              a SELECT without a ForEach child
//	groupby-shape         a GROUP BY without exactly one ForEach child
//	non-aggregate-output  a GROUP BY output column neither grouped nor aggregated
//
// One intended divergence from the reference (documented in DESIGN.md §13):
// within a chunk, predicates run predicate-major rather than row-major, so
// when several rows would raise evaluation errors a different row's error may
// surface first, and a row eliminated by an earlier conjunct never evaluates
// later conjuncts (the reference surfaces an error from a later conjunct even
// when an earlier one was Unknown). The parity suites pin that on error-free
// workloads results are identical, serially bit-for-bit.

// Observability counters for the chunk pipeline.
const (
	CtrVecBoxes    = "exec.vector.boxes"    // boxes evaluated vectorized
	CtrVecDeclined = "exec.vector.declined" // boxes that fell back whole; also counted per reason, CtrVecDeclined.<reason>
	CtrVecLifted   = "exec.vector.lifted"   // expressions evaluated a row at a time by the interpreter
)

// Result evaluation modes reported by Result.Mode / EXPLAIN.
const (
	ModeVectorized  = "vectorized"
	ModeInterpreted = "interpreted"
)

// chunkState is one worker's cursor over one storage chunk: the chunk, the
// current selection (nil = all rows live), and the worker's scratch. Kernels
// evaluate over the selection in dense order.
//
// Scratch ownership: every compiled kernel node owns one slot of vecs
// (vecCompiler.newSlot) and refills it on each call, so a kernel's result is
// valid until that kernel's next call on this worker — long enough for the
// chunk, never longer. Whatever outlives the chunk (a group's cells, output
// rows, DISTINCT pairs) copies out. Slots grow to the live row count on
// first use; an unfiltered box never allocates selBuf, a box without lifted
// kernels never allocates bd, one without a probe never allocates keys.
type chunkState struct {
	chunk  *storage.Chunk
	sel    []int32         // live row indices, dense-ordered; nil = all of [0, chunk.N)
	selBuf []int32         // backing of sel, reused chunk after chunk
	vecs   []*sqltypes.Vec // kernel output slots, each allocated by its first use
	bd     binding         // a lifted expression's binding: one row of scratch
	keys   []keyCol        // a probe's key columns: a key set's or a star join's
}

// keyCols returns the probe's key-column scratch, at least nk columns long.
func (cs *chunkState) keyCols(nk int) []keyCol {
	if len(cs.keys) < nk {
		cs.keys = append(cs.keys, make([]keyCol, nk-len(cs.keys))...)
	}
	return cs.keys
}

// slot returns scratch slot i. Many are never asked for: a column reference
// over an unfiltered chunk answers with the storage vector itself.
func (cs *chunkState) slot(i int) *sqltypes.Vec {
	if cs.vecs[i] == nil {
		cs.vecs[i] = new(sqltypes.Vec)
	}
	return cs.vecs[i]
}

func (cs *chunkState) reset(c *storage.Chunk) {
	cs.chunk = c
	cs.sel = nil
}

// n returns the live (selected) row count.
func (cs *chunkState) n() int {
	if cs.sel != nil {
		return len(cs.sel)
	}
	return cs.chunk.Len()
}

// rowIdx maps a dense selection index to a chunk row index.
func (cs *chunkState) rowIdx(di int) int {
	if cs.sel != nil {
		return int(cs.sel[di])
	}
	return di
}

// materialize fills the scratch binding with chunk row ri, for a lifted
// expression.
func (cs *chunkState) materialize(ri int) binding {
	if cs.bd == nil {
		cs.bd = binding{make([]sqltypes.Value, cs.chunk.Width())}
	}
	cs.chunk.Row(ri, cs.bd[0])
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
	if cs.sel != nil || len(out) < cs.chunk.Len() {
		cs.sel = out
	}
}

// emit hands v, a kernel's result for the current chunk, over to an output
// chunk. A column of the input chunk is sealed and shared as it is; anything
// else lives in one of this worker's scratch slots, which gives its payload
// away and starts the next chunk empty.
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
		for di, n := 0, cs.n(); di < n; di++ {
			v, err := ectx.evalScalar(e, cs.materialize(cs.rowIdx(di)))
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
			if col >= cs.chunk.Width() {
				return nil, fmt.Errorf("exec: column %d out of range (row width %d)", col, cs.chunk.Width())
			}
			src := cs.chunk.Col(col)
			if cs.sel == nil {
				return src, nil // the sealed storage vector itself
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
// integer loop (the date encoding is yyyymmdd); other kinds take the
// per-element route through the same Value accessors as the row kernel, so
// panics and NULL handling are identical. Unknown functions lift (the row
// kernel carries the exact error).
func (vc *vecCompiler) compileCall(t *qgm.Call) vecKernel {
	var f func(int64) int64
	switch t.Name {
	case "year":
		f = func(d int64) int64 { return d / 10000 }
	case "month":
		f = func(d int64) int64 { return (d / 100) % 100 }
	case "day":
		f = func(d int64) int64 { return d % 100 }
	default:
		return vc.lift(t)
	}
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
			ints := out.RefillInts(sqltypes.KindInt, n)
			if av.HasNulls() {
				for i := 0; i < n; i++ {
					if av.IsNull(i) {
						out.SetNull(i)
					} else {
						ints[i] = f(av.Ints()[i])
					}
				}
			} else {
				for i, d := range av.Ints() {
					ints[i] = f(d)
				}
			}
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
// out (a scratch slot distinct from both operands). Typed int/int,
// numeric/float and string/string pairs run dedicated loops; every other
// pairing — and every error case — delegates per element to the sqltypes
// function the row kernel uses, so results, NULL propagation and error
// messages match the row path exactly.
func vecBinArith(op string, a, b, out *sqltypes.Vec) error {
	n := a.Len()
	fn := binOpFn(op)

	// NULL in, NULL out holds for every operator here: an all-NULL side makes
	// the whole result NULL.
	if isAllNull(a) || isAllNull(b) {
		out.Splat(sqltypes.Null, n)
		return nil
	}

	anyNulls := a.HasNulls() || b.HasNulls() || a.Generic() || b.Generic()
	nullAt := func(i int) bool { return anyNulls && (a.IsNull(i) || b.IsNull(i)) }

	switch {
	case (op == "+" || op == "-" || op == "*" || op == "/" || op == "%") && isInt(a) && isInt(b):
		ints := out.RefillInts(sqltypes.KindInt, n)
		for i := 0; i < n; i++ {
			if nullAt(i) {
				out.SetNull(i)
				continue
			}
			x, y := a.Ints()[i], b.Ints()[i]
			switch op {
			case "+":
				ints[i] = x + y
			case "-":
				ints[i] = x - y
			case "*":
				ints[i] = x * y
			case "/", "%":
				if y == 0 {
					_, err := fn(a.Value(i), b.Value(i))
					return err
				}
				if op == "/" {
					ints[i] = x / y
				} else {
					ints[i] = x % y
				}
			}
		}
		return nil

	case (op == "+" || op == "-" || op == "*" || op == "/") && isNumericVec(a) && isNumericVec(b):
		// At least one side is float (both-int handled above): float result.
		fs := out.RefillFloats(n)
		for i := 0; i < n; i++ {
			if nullAt(i) {
				out.SetNull(i)
				continue
			}
			x, y := floatAt(a, i), floatAt(b, i)
			switch op {
			case "+":
				fs[i] = x + y
			case "-":
				fs[i] = x - y
			case "*":
				fs[i] = x * y
			case "/":
				if y == 0 {
					_, err := fn(a.Value(i), b.Value(i))
					return err
				}
				fs[i] = x / y
			}
		}
		return nil

	case op == "||" && !a.Generic() && !b.Generic() &&
		a.Kind() == sqltypes.KindString && b.Kind() == sqltypes.KindString:
		ss := out.RefillStrings(n)
		for i := 0; i < n; i++ {
			if nullAt(i) {
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
		n := cs.n()
		out := cs.selOut()
		for di := 0; di < n; di++ {
			ri := cs.rowIdx(di)
			tv, err := ectx.evalPred(p, cs.materialize(ri))
			if err != nil {
				return err
			}
			if tv == sqltypes.True {
				out = append(out, int32(ri))
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
// time, as the star probe does. An IS NULL term is a NULL cell. The probe
// decides what the predicate does only where KeyCell equality is Compare's:
// each key column's constants must be of one kind among int, date, bool and
// string (Compare finds NaN equal to every float, a date equal to an int and
// an int to a float at 1e15 and above; KeyCell classes do not), else p is
// not compiled here (nil). Per chunk, a key vector must be typed of its
// column's kind or all NULL (any vector will do for a column of IS NULL terms
// only), and every key kernel must succeed (the interpreter stops at a tuple's
// first false term; the kernels do not); any other chunk runs p a row at a
// time, counted as one lift per box.
func (vc *vecCompiler) compileKeySet(p qgm.Expr, exprs []qgm.Expr, consts []*qgm.Const) vecFilter {
	nk := len(exprs)
	kinds := make([]sqltypes.Kind, nk) // KindNull while a column has no constant
	for i, c := range consts {
		if c == nil {
			continue
		}
		switch k, j := c.Kind(), i%nk; {
		case k != sqltypes.KindInt && k != sqltypes.KindDate && k != sqltypes.KindBool && k != sqltypes.KindString,
			kinds[j] != sqltypes.KindNull && kinds[j] != k:
			return nil
		default:
			kinds[j] = k
		}
	}
	table, key := newGroupTable(nk, nil), make([]sqltypes.Value, nk)
	for lo := 0; lo < len(consts); lo += nk {
		for j, c := range consts[lo : lo+nk] {
			if key[j] = sqltypes.Null; c != nil {
				key[j] = c.Peek()
			}
		}
		table.find(key)
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
			if err != nil || kinds[j] != sqltypes.KindNull && (v.Generic() || v.Kind() != kinds[j] && !isAllNull(v)) {
				if !lifted.Swap(true) {
					vc.ev.obsv.Add(CtrVecLifted, 1)
				}
				return rows(cs)
			}
			keys[j].vec = v // loaded a strip at a time below
		}
		var hash [stripRows]uint64 // the strip's hashes and ordinals stay on this stack
		var ords [stripRows]uint32
		out := cs.selOut()
		for lo, n := 0, cs.n(); lo < n; lo += stripRows {
			m := min(stripRows, n-lo)
			for j := range nk {
				keys[j].load(keys[j].vec, lo, m)
			}
			table.findBatch(keys, set, hash[:m], ords[:m], false)
			for i, g := range ords[:m] {
				if g != noGroup {
					out = append(out, int32(cs.rowIdx(lo+i)))
				}
			}
		}
		cs.setSel(out)
		return nil
	}
}

// compileCmpFilter lowers one comparison conjunct. The operand kernels run
// over the current selection; the compare loop keeps rows where the
// comparison is True (NULL operands are Unknown and drop). Kind dispatch
// happens once per chunk — mixed pairings Compare handles (date/int, numeric
// coercion) and pairings it rejects both delegate per element for the exact
// result or error.
func (vc *vecCompiler) compileCmpFilter(bin *qgm.Bin) vecFilter {
	l, r, keep := vc.compileScalar(bin.L), vc.compileScalar(bin.R), cmpKeep(bin.Op)
	return func(cs *chunkState) error {
		lv, err := l(cs)
		if err != nil {
			return err
		}
		rv, err := r(cs)
		if err != nil {
			return err
		}
		n := cs.n()
		out := cs.selOut()

		anyNulls := lv.HasNulls() || rv.HasNulls() || lv.Generic() || rv.Generic()
		nullAt := func(i int) bool { return anyNulls && (lv.IsNull(i) || rv.IsNull(i)) }

		switch {
		case isAllNull(lv) || isAllNull(rv):
			// Comparison with NULL is Unknown everywhere: empty selection.

		case isInt(lv) && isInt(rv),
			intClass(lv) && intClass(rv) && lv.Kind() == rv.Kind(),
			intClass(lv) && intClass(rv) &&
				(lv.Kind() == sqltypes.KindDate || lv.Kind() == sqltypes.KindInt) &&
				(rv.Kind() == sqltypes.KindDate || rv.Kind() == sqltypes.KindInt):
			// Int/int, same-kind int-class (date/date, bool/bool), and the
			// date/int pairings Compare allows: payload compare.
			for di := 0; di < n; di++ {
				if nullAt(di) {
					continue
				}
				if keep(cmp.Compare(lv.Ints()[di], rv.Ints()[di])) {
					out = append(out, int32(cs.rowIdx(di)))
				}
			}

		case isNumericVec(lv) && isNumericVec(rv):
			for di := 0; di < n; di++ {
				if nullAt(di) {
					continue
				}
				if keep(cmpF64(floatAt(lv, di), floatAt(rv, di))) {
					out = append(out, int32(cs.rowIdx(di)))
				}
			}

		case !lv.Generic() && !rv.Generic() &&
			lv.Kind() == sqltypes.KindString && rv.Kind() == sqltypes.KindString:
			for di := 0; di < n; di++ {
				if nullAt(di) {
					continue
				}
				if keep(cmp.Compare(lv.Strs()[di], rv.Strs()[di])) {
					out = append(out, int32(cs.rowIdx(di)))
				}
			}

		default:
			// Mixed/odd kinds: Compare per element for exact semantics.
			for di := 0; di < n; di++ {
				if nullAt(di) {
					continue
				}
				c, err := sqltypes.Compare(lv.Value(di), rv.Value(di))
				if err != nil {
					return err
				}
				if keep(c) {
					out = append(out, int32(cs.rowIdx(di)))
				}
			}
		}
		cs.setSel(out)
		return nil
	}
}

func cmpF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// exprOverQuant reports whether e references only quantifier qid (scalar
// subqueries count as constants) and contains no aggregate — the shape the
// vector compiler evaluates with exact row-path error behavior. Anything else
// declines the box so the row path raises its own errors. It runs per
// predicate, output column and aggregate argument of every box, so it must
// not allocate: WalkExpr does not retain its callback.
func exprOverQuant(e qgm.Expr, qid int, scalars map[int]sqltypes.Value) bool {
	ok := true
	qgm.WalkExpr(e, func(x qgm.Expr) bool {
		switch t := x.(type) {
		case *qgm.ColRef:
			if t.Q == nil {
				ok = false
			} else if _, isScalar := scalars[t.Q.ID]; !isScalar && t.Q.ID != qid {
				ok = false
			}
		case *qgm.Agg:
			ok = false
		}
		return ok
	})
	return ok
}

// evalSelectVec is the projection sink: the box's source yields each chunk's
// tuples, the output expressions evaluate over them, and the resulting vectors
// leave as one output chunk per input chunk — only what the filters and the
// join kept is ever materialized. Chunks partition across workers in order, so
// output order matches the serial row path. A nil relation means the shape
// declined and the caller must run the row path.
func (ev *evaluator) evalSelectVec(b *qgm.Box) (*relation, error) {
	s, reason, err := ev.planSource(b)
	if err != nil {
		return nil, err
	}
	exprs := make([]qgm.Expr, len(b.Cols))
	for i, c := range b.Cols {
		if exprs[i] = c.Expr; c.Expr == nil && reason == "" {
			reason = declBeyondChild // cols reads nil as "no expression"; a SELECT has none such
		}
	}
	var cols []srcCol
	if reason == "" {
		cols, reason = s.cols(exprs)
	}
	if reason != "" {
		ev.decline(reason)
		return nil, nil
	}
	if err := s.open(); err != nil {
		return nil, err
	}
	workers := ev.workersFor(s.total)
	parts := make([][]*storage.Chunk, max(workers, 1))
	err = ev.parallelChunks(len(s.chunks), workers, func(w, lo, hi int, chg *charger) error {
		sw := s.worker()
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
			out := make([]sqltypes.Vec, len(cols))
			for i := range cols {
				v, err := sw.eval(&cols[i])
				if err != nil {
					return err
				}
				out[i] = sw.cs.emit(v)
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
	rel := chunkRelation(chunks)
	if b.Distinct {
		rows := dedupeRows(rel.rowsOf())
		rel = &relation{n: len(rows), rows: rows}
	}
	ev.obsv.Add(CtrVecBoxes, 1)
	ev.usedVector = true
	return rel, nil
}
