// Typed helpers shared by the typed analyzers.
package lint

import (
	"go/ast"
	"go/types"
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

// isCellUpdate reports whether call invokes rcu.Cell's Update method.
func isCellUpdate(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal || s.Obj().Name() != "Update" {
		return false
	}
	recv := namedOf(s.Obj().Type().(*types.Signature).Recv().Type())
	return recv != nil && recv.Obj().Name() == "Cell" && recv.Obj().Pkg().Path() == rcuPath
}

// forEachFuncBody visits every function body in the file: declared functions
// and, separately, each function literal (closures are not inlined).
func forEachFuncBody(f *File, visit func(name string, body *ast.BlockStmt)) {
	for _, decl := range f.AST.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		visit(fd.Name.Name, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				visit(fd.Name.Name+".func", lit.Body)
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
