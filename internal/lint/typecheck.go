// Type-checking for the lint harness. The module is checked with go/types
// using only the standard library: stdlib imports resolve through the source
// importer (importer.ForCompiler "source", which type-checks $GOROOT/src and
// caches the result), and module-internal imports resolve from packages
// checked earlier in topological order. Type errors are collected, never
// fatal — typed analyzers consult Package.Info and stay silent where
// resolution failed, so a half-broken tree still gets the syntactic rules.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

var (
	stdImporterOnce sync.Once
	stdImporter     types.Importer
)

// stdlibImporter returns the shared source importer for standard-library
// packages. It keeps its own FileSet: stdlib positions never surface in
// findings, and sharing one importer amortizes the (expensive) from-source
// check of sync, sync/atomic, fmt, etc. across packages and tests.
func stdlibImporter() types.Importer {
	stdImporterOnce.Do(func() {
		stdImporter = importer.ForCompiler(token.NewFileSet(), "source", nil)
	})
	return stdImporter
}

// modImporter resolves module-internal paths from already-checked packages
// and everything else through the stdlib source importer.
type modImporter struct {
	modPath string
	done    map[string]*types.Package
}

func (m *modImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.done[path]; ok {
		return p, nil
	}
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		return nil, fmt.Errorf("lint: module package %s not yet type-checked (import cycle?)", path)
	}
	return stdlibImporter().Import(path)
}

// newTypeInfo allocates the Info maps typed analyzers need.
func newTypeInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// typeCheckPackage checks one package against the given importer. Errors are
// recorded on the package; Info is filled as far as resolution got.
func typeCheckPackage(p *Package, imp types.Importer) {
	info := newTypeInfo()
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			p.TypeErrs = append(p.TypeErrs, err)
		},
	}
	files := make([]*ast.File, 0, len(p.Files))
	for _, f := range p.Files {
		files = append(files, f.AST)
	}
	// Check never returns a useful package on hard failure; the Error hook
	// already captured everything we want to surface.
	tp, _ := conf.Check(p.Path, p.Fset, files, info)
	p.Types = tp
	p.Info = info
}

// typeCheckModule type-checks every package, ordering module-internal
// dependencies first. External test packages (Name foo_test) are checked
// after their base package and may import it. Packages stuck in an import
// cycle (should not happen) are checked last with unresolved imports
// recorded as type errors.
func typeCheckModule(modPath string, pkgs []*Package) {
	isMod := func(path string) bool {
		return path == modPath || strings.HasPrefix(path, modPath+"/")
	}
	// A package is keyed by import path; the external test variant gets a
	// synthetic key so both can coexist in the dependency graph.
	keyOf := func(p *Package) string {
		if strings.HasSuffix(p.Name, "_test") {
			return p.Path + "_test"
		}
		return p.Path
	}
	byKey := map[string]*Package{}
	for _, p := range pkgs {
		byKey[keyOf(p)] = p
	}
	deps := map[string][]string{}
	for _, p := range pkgs {
		k := keyOf(p)
		seen := map[string]bool{}
		for _, f := range p.Files {
			for _, imp := range f.AST.Imports {
				ip := importPathOf(imp)
				if isMod(ip) && byKey[ip] != nil && ip != p.Path && !seen[ip] {
					seen[ip] = true
					deps[k] = append(deps[k], ip)
				}
			}
		}
		if strings.HasSuffix(p.Name, "_test") {
			if _, ok := byKey[p.Path]; ok && !seen[p.Path] {
				deps[k] = append(deps[k], p.Path)
			}
		}
	}
	done := map[string]*types.Package{}
	imp := &modImporter{modPath: modPath, done: done}
	checked := map[string]bool{}
	var order []*Package
	// Kahn-style peeling in deterministic order.
	for len(order) < len(pkgs) {
		progress := false
		for _, p := range pkgs {
			k := keyOf(p)
			if checked[k] {
				continue
			}
			ready := true
			for _, d := range deps[k] {
				if !checked[d] {
					ready = false
					break
				}
			}
			if ready {
				checked[k] = true
				order = append(order, p)
				progress = true
			}
		}
		if !progress {
			// Import cycle: append the rest in sorted order; their
			// module imports will surface as type errors.
			for _, p := range pkgs {
				if !checked[keyOf(p)] {
					checked[keyOf(p)] = true
					order = append(order, p)
				}
			}
		}
	}
	for _, p := range order {
		typeCheckPackage(p, imp)
		if p.Types != nil && !strings.HasSuffix(p.Name, "_test") {
			// In-package test files are part of the same check; only
			// the base result is importable.
			if _, ok := done[p.Path]; !ok {
				done[p.Path] = p.Types
			}
		}
	}
}
