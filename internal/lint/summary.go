// Typed helpers shared by the typed analyzers, and chunk-freeze's
// cross-function summary table. The summary table is the conservative escape
// from pure intra-procedural analysis: for module-internal callees that take
// chunks or snapshots, it records whether they may write through their
// receiver or arguments. Stdlib
// callees default to read-only with an explicit mutator list (sort, copy);
// unknown module-internal callees default to "may mutate", which is what
// makes passing a frozen value to an unlisted helper a finding rather than a
// blind spot.
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

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	if o := info.Uses[id]; o != nil {
		_, isB := o.(*types.Builtin)
		return isB
	}
	return false
}

// calleeName renders a callee for messages.
func calleeName(f *types.Func, call *ast.CallExpr) string {
	if f != nil {
		return funcKey(f)
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		return id.Name
	}
	return "callee"
}

// forEachFuncBody visits every function body in the file: declared functions
// and, separately, each function literal (closures are not inlined). recv is
// nil for functions and literals.
func forEachFuncBody(f *File, visit func(name string, ft *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt)) {
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		visit(fd.Name.Name, fd.Type, fd.Recv, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				visit(fd.Name.Name+".func", lit.Type, nil, lit.Body)
			}
			return true
		})
	}
}

// inspectShallow walks n's subtree calling fn on every call expression,
// without descending into nested function literals.
func inspectShallow(n ast.Node, fn func(*ast.CallExpr)) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			fn(call)
		}
		return true
	})
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

// ---- callee effects on frozen values ----

// calleeFacts is the hand-kept summary of module-internal callees that are
// handed chunks or their vectors: true for one that may write through its
// receiver, false for one certified to write through nothing; neither kind
// writes through an argument. Keys come from funcKey. Anything module-internal
// and absent defaults to "may write everything reachable" — strictly, inside
// internal/storage, where that default is a finding; elsewhere only a listed
// mutator is. Every row earns its place: TestCalleeFactsRowsAreNeeded fails
// on one whose removal changes no finding on the repository or a fixture.
var calleeFacts = map[string]bool{
	"repro/internal/sqltypes.(Vec).IsNull": false,
	// AppendValue/AppendNull are the designated appenders; the executor's
	// scratch refills overwrite elements below the current length. On a
	// storage column each is the write the seal forbids.
	"repro/internal/sqltypes.(Vec).AppendValue":   true,
	"repro/internal/sqltypes.(Vec).AppendNull":    true,
	"repro/internal/sqltypes.(Vec).Reset":         true,
	"repro/internal/sqltypes.(Vec).Reserve":       true,
	"repro/internal/sqltypes.(Vec).RefillInts":    true,
	"repro/internal/sqltypes.(Vec).RefillFloats":  true,
	"repro/internal/sqltypes.(Vec).RefillStrings": true,
	"repro/internal/sqltypes.(Vec).RefillGeneric": true,
	"repro/internal/sqltypes.(Vec).SetNull":       true,
	"repro/internal/sqltypes.(Vec).Splat":         true,
	"repro/internal/sqltypes.(Vec).Gather":        true, // reads its src argument
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
	if writesRecv, ok := calleeFacts[key]; ok {
		return argIdx < 0 && writesRecv
	}
	if !isModulePath(pkg) {
		// atomic loads/stores, fmt, errors, ...:
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
