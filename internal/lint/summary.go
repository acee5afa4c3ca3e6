// Typed helpers and the cross-function summary table shared by the
// flow-sensitive analyzers (publish-freeze, chunk-freeze, unlock-paths,
// mutex-discipline). The summary table is the conservative escape from pure
// intra-procedural analysis: for module-internal callees that take published
// values, chunks, or snapshots, it records whether they may write through
// their receiver or arguments, and which helpers contractually require a
// caller-held mutex. Stdlib callees default to read-only with an explicit
// mutator list (sort, copy); unknown module-internal callees default to
// "may mutate", which is what makes passing a published value to an
// unlisted helper a finding rather than a blind spot.
package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// ---- type-driven expression helpers ----

// rootIdent peels selectors, indexes, stars, parens, and type asserts off an
// expression and returns the base identifier, or nil (e.g. call results,
// composite literals).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// rootObj resolves the base identifier's object, nil when untyped or not a
// variable.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	id := rootIdent(e)
	if id == nil || info == nil {
		return nil
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if _, ok := obj.(*types.Var); !ok {
		return nil
	}
	return obj
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x
		case *types.Alias:
			t = types.Unalias(x)
		default:
			return nil
		}
	}
}

// typeKey renders a named type as "pkgpath.Name" ("" for unnamed). Type
// parameters are dropped, so atomic.Pointer[T] keys as "sync/atomic.Pointer".
func typeKey(t types.Type) string {
	n := namedOf(t)
	if n == nil || n.Obj() == nil {
		return ""
	}
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// calleeOf resolves a call expression to the invoked *types.Func (methods
// and package functions), or nil for builtins, conversions, and func values.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	if info == nil {
		return nil
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		// Package-qualified call: pkg.Fn(...).
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.IndexExpr: // generic instantiation Fn[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			if f, ok := info.Uses[id].(*types.Func); ok {
				return f
			}
		}
	}
	return nil
}

// harmlessCall reports whether call is a builtin or type conversion that
// cannot write through its arguments (append/copy/delete/clear are handled
// separately by the callers before consulting this).
func harmlessCall(info *types.Info, call *ast.CallExpr) bool {
	if info == nil {
		return false
	}
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return true // conversion
	}
	var obj types.Object
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		obj = info.Uses[f.Sel]
	}
	if _, ok := obj.(*types.Builtin); ok {
		return true // len, cap, min, max, print, ... (mutating builtins pre-handled)
	}
	return false
}

// funcKey renders a function as "pkgpath.Name" or "pkgpath.(Type).Name" for
// methods, dropping pointerness and type arguments.
func funcKey(f *types.Func) string {
	if f == nil {
		return ""
	}
	sig, _ := f.Type().(*types.Signature)
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	if sig != nil && sig.Recv() != nil {
		if n := namedOf(sig.Recv().Type()); n != nil {
			return fmt.Sprintf("%s.(%s).%s", pkg, n.Obj().Name(), f.Name())
		}
		// Interface method: key on the interface-less form.
		return fmt.Sprintf("%s.(?).%s", pkg, f.Name())
	}
	return pkg + "." + f.Name()
}

// isModulePath reports whether a package path belongs to this module. The
// fixture packages claim repro/... paths on purpose, so they get the same
// strict treatment as production code.
func isModulePath(path string) bool {
	return path == "repro" || strings.HasPrefix(path, "repro/")
}

// ---- publish / freeze callee effects ----

// calleeFact is the summary for one callee: whether calling it may write
// through its receiver or any pointer-reachable argument.
type calleeFact struct {
	mutatesRecv bool
	mutatesArgs []int // arg indices whose pointee may be written; nil = none
	readonly    bool  // explicit read-only entry (module-internal whitelist)
}

func (c calleeFact) mutatesArg(i int) bool {
	for _, a := range c.mutatesArgs {
		if a == i {
			return true
		}
	}
	return false
}

// calleeFacts is the hand-maintained summary for module-internal callees
// that take chunks, snapshots, views, or other publishable values. Keys come
// from funcKey. Anything module-internal and absent defaults to
// "may mutate everything reachable" — add entries here (with review) rather
// than suppressing findings at call sites.
var calleeFacts = map[string]calleeFact{
	// storage.Chunk and its vectors: appendRow/AppendValue/AppendNull are the
	// designated mutators; everything else reads.
	"repro/internal/storage.(Chunk).appendRow":  {mutatesRecv: true},
	"repro/internal/storage.(Chunk).Row":        {mutatesArgs: []int{1}}, // writes dst
	"repro/internal/storage.(Chunk).frozen":     {readonly: true},
	"repro/internal/storage.frozenChunks":       {readonly: true},
	"repro/internal/storage.buildChunks":        {readonly: true},
	"repro/internal/storage.materializeRows":    {readonly: true},
	"repro/internal/storage.lookupFold":         {readonly: true},
	"repro/internal/storage.(TableData).Row":    {readonly: true},
	"repro/internal/sqltypes.(Vec).AppendValue": {mutatesRecv: true},
	"repro/internal/sqltypes.(Vec).AppendNull":  {mutatesRecv: true},
	"repro/internal/sqltypes.(Vec).Frozen":      {readonly: true},
	"repro/internal/sqltypes.(Vec).Value":       {readonly: true},
	"repro/internal/sqltypes.(Vec).IsNull":      {readonly: true},
	"repro/internal/sqltypes.(Vec).Len":         {readonly: true},
	"repro/internal/sqltypes.(Vec).Kind":        {readonly: true},
	"repro/internal/sqltypes.(Vec).HasNulls":    {readonly: true},
	"repro/internal/sqltypes.(Vec).Generic":     {readonly: true},
	"repro/internal/sqltypes.(Vec).Prefix":      {readonly: true},
	// The executor's scratch refills overwrite elements below the current
	// length: on a storage column they are the write the seal forbids.
	"repro/internal/sqltypes.(Vec).Reset":         {mutatesRecv: true},
	"repro/internal/sqltypes.(Vec).Reserve":       {mutatesRecv: true},
	"repro/internal/sqltypes.(Vec).RefillInts":    {mutatesRecv: true},
	"repro/internal/sqltypes.(Vec).RefillFloats":  {mutatesRecv: true},
	"repro/internal/sqltypes.(Vec).RefillStrings": {mutatesRecv: true},
	"repro/internal/sqltypes.(Vec).RefillGeneric": {mutatesRecv: true},
	"repro/internal/sqltypes.(Vec).SetNull":       {mutatesRecv: true},
	"repro/internal/sqltypes.(Vec).Splat":         {mutatesRecv: true},
	"repro/internal/sqltypes.(Vec).Gather":        {mutatesRecv: true}, // reads its src argument
	// The key normalisation reads the vector and writes only into the two
	// buffers it is handed.
	"repro/internal/sqltypes.(Vec).KeyCells": {readonly: true, mutatesArgs: []int{1, 2}},
}

// stdlibMutators are the standard-library callees that write through an
// argument; everything else in the stdlib is treated as read-only with
// respect to tracked values. (Writing into an io.Writer etc. does not write
// *through* the tracked pointer graph we care about.)
var stdlibMutators = map[string][]int{
	"sort.Sort":        {0},
	"sort.Stable":      {0},
	"sort.Slice":       {0},
	"sort.SliceStable": {0},
	"sort.Strings":     {0},
	"sort.Ints":        {0},
	"sort.Float64s":    {0},
	"slices.Sort":      {0},
	"slices.SortFunc":  {0},
	"slices.Reverse":   {0},
}

// calleeEffectOn classifies what calling f may do to a tracked value passed
// as the receiver (argIdx == -1) or as argument argIdx. It returns true when
// the call may write through that value.
func calleeEffectOn(f *types.Func, argIdx int) bool {
	if f == nil {
		// Unknown function value: assume mutation.
		return true
	}
	pkg := ""
	if f.Pkg() != nil {
		pkg = f.Pkg().Path()
	}
	key := funcKey(f)
	if fact, ok := calleeFacts[key]; ok {
		if argIdx < 0 {
			return fact.mutatesRecv
		}
		return fact.mutatesArg(argIdx)
	}
	if !isModulePath(pkg) {
		// sync.Mutex.Lock/Unlock, atomic loads/stores, fmt, errors, ...:
		// read-only unless on the explicit mutator list.
		if idxs, ok := stdlibMutators[pkg+"."+f.Name()]; ok {
			for _, i := range idxs {
				if i == argIdx {
					return true
				}
			}
		}
		return false
	}
	// Unlisted module-internal callee: conservatively a mutator.
	return true
}

// ---- RCU publish points ----

// publishCall reports whether call is an RCU publish — a Store or Swap on a
// sync/atomic.Pointer or atomic.Value — returning the published argument.
func publishCall(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || info == nil {
		return nil, false
	}
	if sel.Sel.Name != "Store" && sel.Sel.Name != "Swap" {
		return nil, false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return nil, false
	}
	recv := typeKey(s.Recv())
	if recv != "sync/atomic.Pointer" && recv != "sync/atomic.Value" {
		return nil, false
	}
	if len(call.Args) != 1 {
		return nil, false
	}
	return call.Args[0], true
}

// ---- mutex specs (typed) ----

// lockSpec is one type's locking contract: guarded fields may only be
// touched with the mutex (or its read half) held on the same base value, and
// publish fields are atomic pointers whose Store/Swap requires the full
// write lock.
type lockSpec struct {
	typ     string   // typeKey, e.g. "repro/internal/storage.TableData"
	mutex   string   // mutex field name
	guarded []string // fields needing the mutex (Lock or RLock) held
	publish []string // atomic fields whose Store needs the write lock
}

// lockSpecs enforces the striped and RCU-published structures on the serving
// hot path. Matching is type-based: an access x.field requires key(x).mutex
// in the must-held set at that program point, whatever the variable is
// called. Constructor ownership is flow-based (freshly allocated values are
// exempt), replacing the old New*/new* name heuristic; helpers that
// contractually run under a caller's lock are listed in requiresHeld,
// replacing the old doc-comment sniffing.
var lockSpecs = []lockSpec{
	{typ: "repro/internal/storage.TableData", mutex: "mu",
		guarded: []string{"chunks"}, publish: []string{"view"}},
	{typ: "repro/internal/storage.Store", mutex: "mu",
		publish: []string{"tables"}},
	{typ: "repro/internal/core.planShard", mutex: "mu",
		guarded: []string{"ll", "byKey"}},
	{typ: "repro/internal/obs.Observer", mutex: "mu",
		publish: []string{"counters", "hists"}},
	{typ: "repro/internal/obs.histStripe", mutex: "mu",
		guarded: []string{"h"}},
	{typ: "repro/internal/catalog.Catalog", mutex: "statusMu",
		publish: []string{"status"}},
	{typ: "repro/internal/catalog.sigIndex", mutex: "mu",
		publish: []string{"entries"}},
	{typ: "repro/astdb.Engine", mutex: "mu",
		publish: []string{"asts", "plans"}},
}

// requiresHeld lists helpers whose contract is "callers must hold the
// receiver's mutex": their bodies may touch guarded/publish fields freely,
// and every call site must have the lock in its must-held set.
var requiresHeld = map[string]string{
	"repro/internal/storage.(Store).setTable":   "mu",
	"repro/internal/catalog.(sigIndex).replace": "mu",
	"repro/astdb.(Engine).setASTs":              "mu",
}

// freshFuncs are module-internal constructors certified to return a value no
// other goroutine can reach yet; values assigned from them get the same
// constructor-ownership exemption as composite literals. (newTableData and
// friends need no entry: their composite-literal allocations are recognized
// directly.)
var freshFuncs = map[string]bool{
	"repro/astdb.assemble": true,
}

// specForType returns the lockSpecs entry for a type key.
func specsForType(key string) []lockSpec {
	var out []lockSpec
	for _, s := range lockSpecs {
		if s.typ == key {
			out = append(out, s)
		}
	}
	return out
}
