// Boundaries: a table of names and the packages that alone may mention each.
// A row is for an invariant a type already enforces everywhere but at one
// door — rcu.Guarded makes "guarded state is touched under its lock, and the
// lock is released on every exit" unwritable, provided nobody declares a mutex
// of their own; rcu.Cell and rcu.Map make "a published generation is never
// written" unwritable, provided nobody publishes through an atomic pointer of
// their own — and the row shuts that door. Matching is by object identity in
// the type-checked package, so an alias, a dot import or an embedded field is
// the same mention. Test files are not checked: a test may keep a mutex of its
// own.
package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
)

const rcuPath = "repro/internal/rcu"

// lockOwners may declare a mutex: the primitive, and the benchmark harness —
// a client of the engine in a module of its own, whose locks guard its own
// bookkeeping and no engine state.
var lockOwners = []string{rcuPath, "repro/benchmark"}

// boundary is one row.
type boundary struct {
	pkg, name string   // the object: a type of pkg
	only      []string // the package paths that may mention it
	instead   string   // what to write instead
}

const (
	useGuarded = "keep the state in an rcu.Guarded and reach it through Do"
	useCell    = "publish through rcu.Cell or rcu.Map"
)

var boundaries = []boundary{
	{pkg: "sync", name: "Mutex", only: lockOwners, instead: useGuarded},
	{pkg: "sync", name: "RWMutex", only: lockOwners, instead: useGuarded},
	{pkg: "sync/atomic", name: "Pointer", only: []string{rcuPath}, instead: useCell},
	{pkg: "sync/atomic", name: "Value", only: []string{rcuPath}, instead: useCell},
}

// Boundaries is the analyzer over the table above.
var Boundaries = &Analyzer{
	Name: "boundaries",
	Run:  runBoundaries,
}

func runBoundaries(p *Package) []Finding {
	if p.Info == nil || p.Types == nil {
		return nil
	}
	// A name cannot be mentioned without importing its package directly.
	rows := map[types.Object]boundary{}
	for _, b := range boundaries {
		if slices.Contains(b.only, p.Path) {
			continue
		}
		for _, imp := range p.Types.Imports() {
			if obj := imp.Scope().Lookup(b.name); imp.Path() == b.pkg && obj != nil {
				rows[obj] = b
			}
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
		ast.Inspect(f.AST, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if b, ok := rows[p.Info.Uses[id]]; ok {
					out = append(out, Finding{
						Pos:     p.Fset.Position(id.Pos()),
						Message: fmt.Sprintf("%s.%s outside %s: %s", b.pkg, b.name, b.only[0], b.instead),
					})
				}
			}
			return true
		})
	}
	return out
}
