package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// All returns the full analyzer suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		Boundaries,
	}
}

// deterministicPkgs are the planning packages that must behave identically
// across runs: plan-cache keys, rewrite decisions, and the qgmcheck oracle
// all assume that matching the same query twice yields the same plan.
var deterministicPkgs = map[string]bool{
	"repro/internal/core": true,
	"repro/internal/exec": true,
	"repro/internal/qgm":  true,
}

// clockReads are the functions of package time that read the wall clock.
var clockReads = map[string]bool{"Now": true, "Since": true, "Until": true}

// Determinism forbids wall-clock and randomness in the planning packages.
// Latency measurement goes through obs.Observer.Now/ObserveSince, which are
// nil-guarded and zero-cost when observability is off. A call is matched by
// the function the type checker resolved, so a renamed or dot import is the
// same call.
//
// Test files are covered too (property tests drive the planner and must
// replay identically), with one carve-out: a *rand.Rand built from a
// compile-time constant seed — rand.New(rand.NewSource(42)) — is
// deterministic by construction and allowed; the global rand functions and
// non-constant seeds are not.
var Determinism = &Analyzer{
	Name: "determinism",
	Run: func(p *Package) []Finding {
		if !deterministicPkgs[p.Path] {
			return nil
		}
		var out []Finding
		report := func(n ast.Node, format string, args ...any) {
			out = append(out, Finding{Pos: p.Fset.Position(n.Pos()), Message: fmt.Sprintf(format, args...)})
		}
		for _, f := range p.Files {
			imports := map[string]string{}
			for _, imp := range f.AST.Imports {
				path := importPathOf(imp)
				if isRand(path) && !f.Test {
					report(imp, "package %s must stay deterministic: do not import %s", p.Path, path)
				}
				imports[importName(imp)] = path
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pkg, name := callee(p, imports, call)
				switch {
				case pkg == "time" && clockReads[name]:
					report(call, "time.%s in deterministic package %s; use obs.Observer.Now/ObserveSince", name, p.Path)
				case isRand(pkg) && f.Test:
					// Allowed: rand.New(...) and rand.NewSource(<const>).
					// Everything else on the package (rand.Intn, rand.Shuffle,
					// ...) uses the shared global source. A non-test file
					// was already reported at its import.
					switch name {
					case "New":
					case "NewSource":
						if len(call.Args) == 1 && !isConstExpr(p, call.Args[0]) {
							report(call, "rand.NewSource seed must be a compile-time constant in deterministic package %s", p.Path)
						}
					default:
						report(call, "global rand.%s in deterministic package %s; use rand.New(rand.NewSource(<const>))", name, p.Path)
					}
				}
				return true
			})
		}
		return out
	},
}

func isRand(path string) bool { return path == "math/rand" || path == "math/rand/v2" }

// callee names the package-level function a call invokes, as (package path,
// name), or ("", "") for a method, a conversion or a function value. The
// type checker's object decides; where it resolved none (the package did not
// type-check), the selector's spelling is matched against the file's imports
// (local name → path).
func callee(p *Package, imports map[string]string, call *ast.CallExpr) (pkg, name string) {
	var id *ast.Ident
	var x ast.Expr
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id, x = fun.Sel, fun.X
	default:
		return "", ""
	}
	if p.Info != nil {
		if obj, ok := p.Info.Uses[id]; ok {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
				return "", ""
			}
			return fn.Pkg().Path(), fn.Name()
		}
	}
	if qual, ok := x.(*ast.Ident); ok && imports[qual.Name] != "" {
		return imports[qual.Name], id.Name
	}
	return "", ""
}

// isConstExpr reports whether e evaluates to a compile-time constant,
// falling back to a literal check when type info is unavailable.
func isConstExpr(p *Package, e ast.Expr) bool {
	if p.Info != nil {
		if tv, ok := p.Info.Types[e]; ok {
			return tv.Value != nil
		}
	}
	_, lit := ast.Unparen(e).(*ast.BasicLit)
	return lit
}
