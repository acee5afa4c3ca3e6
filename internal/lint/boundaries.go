// Boundaries: a table of names and the one side of a line each may be
// mentioned on. A row is for an invariant a type already enforces everywhere
// but at one door — rcu.Guarded makes "guarded state is touched under its
// lock, and the lock is released on every exit" unwritable, provided nobody
// declares a mutex of their own; rcu.Cell and rcu.Map make "a published
// generation is never written" unwritable, provided nobody publishes through
// an atomic pointer of their own; qgm.Const makes "planning pins every literal
// it reads" unwritable, provided planning cannot reach the accessor that does
// not pin — and the row shuts that door. Matching is by object identity in the
// type-checked package, so an alias, a dot import or an embedded field is the
// same mention. Test files are not checked: a test may keep a mutex of its
// own, and reads constants to compare them.
package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

const (
	corePath    = "repro/internal/core"
	catalogPath = "repro/internal/catalog"
	qgmPath     = "repro/internal/qgm"
)

// lockOwners may declare a mutex: the primitive, and the benchmark harness —
// a client of the engine in a module of its own, whose locks guard its own
// bookkeeping and no engine state.
var lockOwners = []string{rcuPath, "repro/benchmark"}

// boundary is one row. A scope is a package path, or a package path and a
// file name ("repro/internal/qgm/expr.go") for what Go would call
// file-private if it had the notion.
type boundary struct {
	pkg, name string   // the object: "Type", "Func", "Type.Method" or "Type.field" of pkg
	only      []string // the scopes that may mention it, or
	never     []string // the scopes that may not
	instead   string   // what to write instead
}

const (
	useGuarded = "keep the state in an rcu.Guarded and reach it through Do"
	useCell    = "publish through rcu.Cell or rcu.Map"
	useValue   = "planning reads a constant with Value(), which pins its literal for the plan cache"
)

var boundaries = []boundary{
	{pkg: "sync", name: "Mutex", only: lockOwners, instead: useGuarded},
	{pkg: "sync", name: "RWMutex", only: lockOwners, instead: useGuarded},
	{pkg: "sync/atomic", name: "Pointer", only: []string{rcuPath}, instead: useCell},
	{pkg: "sync/atomic", name: "Value", only: []string{rcuPath}, instead: useCell},
	{pkg: qgmPath, name: "Const.Peek", never: []string{corePath, catalogPath, qgmPath}, instead: useValue},
	{pkg: qgmPath, name: "Const.val", only: []string{qgmPath + "/expr.go"}, instead: useValue},
}

// Boundaries is the analyzer over the table above.
var Boundaries = &Analyzer{
	Name: "boundaries",
	Doc:  "no mutex or atomic pointer declared outside internal/rcu (use rcu.Guarded, rcu.Cell); planning never reads a qgm.Const without pinning it",
	Run:  runBoundaries,
}

func runBoundaries(p *Package) []Finding {
	if p.Info == nil || p.Types == nil {
		return nil
	}
	rows := map[types.Object]boundary{}
	for _, b := range boundaries {
		if obj := b.resolve(p.Types); obj != nil {
			rows[obj] = b
		}
	}
	if len(rows) == 0 {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		if f.Test {
			continue
		}
		in := func(scopes []string) bool {
			for _, s := range scopes {
				if s == p.Path || s == p.Path+"/"+filepath.Base(f.Name) {
					return true
				}
			}
			return false
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			b, ok := rows[p.Info.Uses[id]]
			if !ok {
				return true
			}
			if allowed := (b.only == nil || in(b.only)) && !in(b.never); allowed {
				return true
			}
			where := "in " + p.Path
			if b.only != nil {
				where = "outside " + b.only[0]
			}
			out = append(out, Finding{
				Pos:     p.Fset.Position(id.Pos()),
				Message: fmt.Sprintf("%s.%s %s: %s", b.pkg, b.name, where, b.instead),
			})
			return true
		})
	}
	return out
}

// resolve finds the row's object as the package under analysis sees it: in
// the package itself or in one it imports directly (a name cannot be
// mentioned without one of the two).
func (b boundary) resolve(in *types.Package) types.Object {
	pkg := in
	if in.Path() != b.pkg {
		pkg = nil
		for _, imp := range in.Imports() {
			if imp.Path() == b.pkg {
				pkg = imp
			}
		}
	}
	if pkg == nil {
		return nil
	}
	typ, member, _ := strings.Cut(b.name, ".")
	obj := pkg.Scope().Lookup(typ)
	if obj == nil || member == "" {
		return obj
	}
	obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, pkg, member)
	return obj
}
