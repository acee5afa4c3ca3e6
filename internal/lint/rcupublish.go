// RCUPublish keeps lock-free publication inside internal/rcu. The types there
// make the two classic mistakes — a Store outside the writer lock, a write to
// a published map — impossible to write, and boundaries keeps the hand-rolled
// idiom (sync/atomic.Pointer, sync/atomic.Value) inside internal/rcu. What is
// left is the one misuse the types cannot express away: a variable of the
// enclosing function that an rcu.Cell Update callback returns (bare, behind &
// or a selector, or as an element of a returned composite literal) belongs to
// the readers once Update returns, so any later mention of it in that
// function is a finding. That check is by source position, not control flow:
// a loop that reuses the variable on its next iteration is not seen.
package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

const rcuPath = "repro/internal/rcu"

// RCUPublish is the analyzer for the hand-over rule above.
var RCUPublish = &Analyzer{
	Name: "rcu-publish",
	Doc:  "nothing an rcu.Cell Update publishes is used afterwards",
	Run:  runRCUPublish,
}

func runRCUPublish(p *Package) []Finding {
	if p.Path == rcuPath || p.Info == nil {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		if f.Test {
			continue
		}
		forEachFuncBody(f, func(name string, body *ast.BlockStmt) {
			inspectShallow(body, func(call *ast.CallExpr) {
				published := publishedCaptures(p.Info, call)
				ast.Inspect(body, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if ok && id.Pos() >= call.End() && published[p.Info.Uses[id]] {
						delete(published, p.Info.Uses[id]) // one finding per variable
						out = append(out, Finding{
							Pos: p.Fset.Position(id.Pos()),
							Message: fmt.Sprintf("%s: %s was published by the Update on line %d and is used after it; build the next generation inside the callback",
								name, id.Name, p.Fset.Position(call.Pos()).Line),
						})
					}
					return len(published) > 0
				})
			})
		})
	}
	return out
}

// publishedCaptures returns the variables declared outside the function
// literal passed to an rcu.Cell Update that the literal's return statements
// hand to readers. Call results are taken to be fresh, and values of basic
// types are copies, so neither counts.
func publishedCaptures(info *types.Info, call *ast.CallExpr) map[types.Object]bool {
	if len(call.Args) != 1 || !isCellUpdate(info, call) {
		return nil
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.FuncLit)
	if !ok {
		return nil
	}
	out := map[types.Object]bool{}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				walk(el)
			}
		case *ast.UnaryExpr:
			walk(x.X)
		case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.SliceExpr, *ast.StarExpr:
			if t := info.TypeOf(x); t != nil {
				if _, basic := t.Underlying().(*types.Basic); basic {
					return
				}
			}
			if o := rootObj(info, x); o != nil && (o.Pos() < lit.Pos() || o.Pos() >= lit.End()) {
				out[o] = true
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, nested := n.(*ast.FuncLit); nested {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				walk(r)
			}
		}
		return true
	})
	return out
}
