package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// All returns the full analyzer suite, in reporting order. The first three
// are syntactic; rcu-publish and boundaries are typed.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		CtxFirst,
		ObsNilGuard,
		RCUPublish,
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

// Determinism forbids wall-clock and randomness in the planning packages.
// Latency measurement goes through obs.Observer.Now/ObserveSince, which are
// nil-guarded and zero-cost when observability is off.
//
// Test files are covered too (property tests drive the planner and must
// replay identically), with one carve-out: a *rand.Rand built from a
// compile-time constant seed — rand.New(rand.NewSource(42)) — is
// deterministic by construction and allowed; the global rand functions and
// non-constant seeds are not.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no wall-clock or unseeded randomness in internal/core, internal/exec, internal/qgm",
	Run: func(p *Package) []Finding {
		if !deterministicPkgs[p.Path] {
			return nil
		}
		var out []Finding
		for _, f := range p.Files {
			timeName, randName := "", ""
			for _, imp := range f.AST.Imports {
				switch importPathOf(imp) {
				case "time":
					timeName = importName(imp)
				case "math/rand", "math/rand/v2":
					if !f.Test {
						out = append(out, Finding{
							Pos: p.Fset.Position(imp.Pos()),
							Message: fmt.Sprintf("package %s must stay deterministic: do not import %s",
								p.Path, importPathOf(imp)),
						})
						continue
					}
					randName = importName(imp)
				}
			}
			if (timeName == "" || timeName == "_") && (randName == "" || randName == "_") {
				continue
			}
			ast.Inspect(f.AST, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				if id.Name == timeName && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
					out = append(out, Finding{
						Pos: p.Fset.Position(call.Pos()),
						Message: fmt.Sprintf("time.%s in deterministic package %s; use obs.Observer.Now/ObserveSince",
							sel.Sel.Name, p.Path),
					})
				}
				if id.Name == randName && randName != "" {
					// Allowed: rand.New(...) and rand.NewSource(<const>).
					// Everything else on the package (rand.Intn, rand.Shuffle,
					// ...) uses the shared global source.
					switch sel.Sel.Name {
					case "New":
					case "NewSource":
						if len(call.Args) == 1 && !isConstExpr(p, call.Args[0]) {
							out = append(out, Finding{
								Pos: p.Fset.Position(call.Pos()),
								Message: fmt.Sprintf("rand.NewSource seed must be a compile-time constant in deterministic package %s",
									p.Path),
							})
						}
					default:
						out = append(out, Finding{
							Pos: p.Fset.Position(call.Pos()),
							Message: fmt.Sprintf("global rand.%s in deterministic package %s; use rand.New(rand.NewSource(<const>))",
								sel.Sel.Name, p.Path),
						})
					}
				}
				return true
			})
		}
		return out
	},
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

// ctxFirstPkgs are the packages whose exported API is the engine's public
// surface; their entry points follow the standard library convention of
// taking the context first.
var ctxFirstPkgs = map[string]bool{
	"repro/astdb":         true,
	"repro/internal/exec": true,
}

// CtxFirst requires exported functions and methods of the facade and
// executor to take context.Context as their first parameter.
var CtxFirst = &Analyzer{
	Name: "ctx-first",
	Doc:  "exported astdb/exec entry points take context.Context first",
	Run: func(p *Package) []Finding {
		if !ctxFirstPkgs[p.Path] {
			return nil
		}
		var out []Finding
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			ctxName := ""
			for _, imp := range f.AST.Imports {
				if importPathOf(imp) == "context" {
					ctxName = importName(imp)
				}
			}
			if ctxName == "" {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || fd.Type.Params == nil {
					continue
				}
				pos := ctxParamPos(fd.Type.Params, ctxName)
				if pos > 0 {
					out = append(out, Finding{
						Pos: p.Fset.Position(fd.Pos()),
						Message: fmt.Sprintf("exported %s takes context.Context at position %d; contexts go first",
							fd.Name.Name, pos),
					})
				}
			}
		}
		return out
	},
}

// ctxParamPos returns the 0-based position of the first context.Context
// parameter, or -1 when there is none. Grouped parameters (a, b T) each
// count one position.
func ctxParamPos(params *ast.FieldList, ctxName string) int {
	pos := 0
	for _, field := range params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		if sel, ok := field.Type.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == ctxName && sel.Sel.Name == "Context" {
				return pos
			}
		}
		pos += n
	}
	return -1
}

// ObsNilGuard requires every exported *obs.Observer method to decide the nil
// receiver in its first statement — the contract that lets every subsystem
// instrument unconditionally with observability off.
var ObsNilGuard = &Analyzer{
	Name: "obs-nil-guard",
	Doc:  "exported *obs.Observer methods begin with a nil-receiver guard",
	Run: func(p *Package) []Finding {
		if p.Path != "repro/internal/obs" {
			return nil
		}
		var out []Finding
		for _, f := range p.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || fd.Body == nil {
					continue
				}
				recv, ptr := receiverType(fd)
				if recv != "Observer" || !ptr {
					continue
				}
				recvName := receiverName(fd)
				if recvName == "" || len(fd.Body.List) == 0 ||
					!stmtComparesNil(fd.Body.List[0], recvName) {
					out = append(out, Finding{
						Pos: p.Fset.Position(fd.Pos()),
						Message: fmt.Sprintf("(*Observer).%s must begin with a nil-receiver guard (if %s == nil / return %s != nil)",
							fd.Name.Name, orElse(recvName, "o"), orElse(recvName, "o")),
					})
				}
			}
		}
		return out
	},
}

// receiverType returns the receiver's named type and whether it is a pointer
// receiver ("" for plain functions).
func receiverType(fd *ast.FuncDecl) (name string, pointer bool) {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "", false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		pointer = true
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name, pointer
	}
	return "", pointer
}

// receiverName returns the receiver binding's name ("" when anonymous).
func receiverName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// stmtComparesNil reports whether the statement contains a comparison of the
// named identifier against nil (the guard idiom: `if o == nil { … }` or
// `return o != nil`).
func stmtComparesNil(s ast.Stmt, name string) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
			return true
		}
		if isIdent(b.X, name) && isIdent(b.Y, "nil") || isIdent(b.Y, name) && isIdent(b.X, "nil") {
			found = true
			return false
		}
		return true
	})
	return found
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func orElse(s, def string) string {
	if strings.TrimSpace(s) == "" {
		return def
	}
	return s
}
