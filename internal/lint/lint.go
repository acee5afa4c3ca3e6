// Package lint is a stdlib-only static-analysis harness (go/parser, go/ast,
// and go/types via the source importer; no go/packages, no go/analysis, no
// golang.org/x/tools) for the invariants Go's types cannot carry and no other
// test catches. Two analyzers: determinism (no clock or unseeded randomness in
// the planning packages), and boundaries, a table of the packages that alone
// may declare a mutex or an atomic pointer, which shuts the one door left open
// beside rcu's types. The storage seal is not here: sealed vectors refuse
// writes at run time. DESIGN.md §11 is the catalogue: what holds, what
// enforces it, what is not proved. TestRepositoryIsClean runs every analyzer
// over the module under `go test ./...` and fails on any finding; there is no
// suppression syntax. The analyzers are data, so tests seed violations
// through ParseSource and assert each one fires.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// File is one parsed source file within its package.
type File struct {
	Name string // file path as parsed
	AST  *ast.File
	Test bool // *_test.go
}

// Package is the unit analyzers see: every file of one directory sharing one
// package clause, with the directory's import path resolved against the
// module path. A directory with an external test package (package foo_test)
// yields two Packages with the same Path and different Names.
type Package struct {
	Path  string // import path, e.g. "repro/internal/core"
	Name  string // package clause name, e.g. "core" or "core_test"
	Fset  *token.FileSet
	Files []*File

	// Filled by TypeCheck. Types/Info may be nil (or partial) when the
	// package failed to type-check; typed analyzers degrade to silence
	// rather than report on incomplete information.
	Types    *types.Package
	Info     *types.Info
	TypeErrs []error
}

// Analyzer is one named rule set. Run inspects a package and reports
// findings; the runner stamps the analyzer name onto each.
type Analyzer struct {
	Name string
	Run  func(p *Package) []Finding
}

// Run applies the analyzers to the packages and returns their findings in
// deterministic (file, line, analyzer) order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, p := range pkgs {
		for _, a := range analyzers {
			for _, f := range a.Run(p) {
				f.Analyzer = a.Name
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// LoadModule parses and type-checks every Go package under root (the
// directory containing go.mod), skipping testdata, vendor, and hidden
// directories. Import paths are derived from the module path declared in
// go.mod. Files sharing a directory but not a package clause (external
// foo_test packages) become separate Packages with the same Path.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	byKey := map[string]*Package{}
	err = filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			name := info.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		clause, perr := parser.ParseFile(token.NewFileSet(), path, nil, parser.PackageClauseOnly)
		if perr != nil {
			return fmt.Errorf("lint: parsing %s: %w", path, perr)
		}
		key := dir + "\x00" + clause.Name.Name
		p := byKey[key]
		if p == nil {
			rel, rerr := filepath.Rel(root, dir)
			if rerr != nil {
				return rerr
			}
			ipath := modPath
			if rel != "." {
				ipath = modPath + "/" + filepath.ToSlash(rel)
			}
			p = &Package{Path: ipath, Name: clause.Name.Name, Fset: token.NewFileSet()}
			byKey[key] = p
		}
		af, perr := parser.ParseFile(p.Fset, path, nil, parser.ParseComments)
		if perr != nil {
			return fmt.Errorf("lint: parsing %s: %w", path, perr)
		}
		p.Files = append(p.Files, &File{
			Name: path,
			AST:  af,
			Test: strings.HasSuffix(path, "_test.go"),
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(byKey))
	for _, p := range byKey {
		sort.Slice(p.Files, func(i, j int) bool { return p.Files[i].Name < p.Files[j].Name })
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool {
		if pkgs[i].Path != pkgs[j].Path {
			return pkgs[i].Path < pkgs[j].Path
		}
		return pkgs[i].Name < pkgs[j].Name
	})
	typeCheckModule(modPath, pkgs)
	return pkgs, nil
}

// ParseSource builds and type-checks a single-file package from source text —
// the seam the per-analyzer tests use to seed violations. The fixture may
// claim any import path (e.g. "repro/internal/storage") so typed rules keyed
// on (package path, type name) match against locally declared stand-in types;
// stdlib imports resolve for real, and so do imports of the given deps
// (packages ParseSource returned earlier — how a fixture gets the real
// internal/rcu). What fails to type-check is reported in TypeErrs.
func ParseSource(importPath, filename, src string, deps ...*Package) (*Package, error) {
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	p := &Package{
		Path: importPath,
		Name: af.Name.Name,
		Fset: fset,
		Files: []*File{{
			Name: filename,
			AST:  af,
			Test: strings.HasSuffix(filename, "_test.go"),
		}},
	}
	imp := &modImporter{done: map[string]*types.Package{}}
	for _, d := range deps {
		imp.done[d.Path] = d.Types
	}
	typeCheckPackage(p, imp)
	return p, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// importName returns the local name an import spec binds, resolving default
// names from the import path's last element.
func importName(s *ast.ImportSpec) string {
	if s.Name != nil {
		return s.Name.Name
	}
	path := strings.Trim(s.Path.Value, `"`)
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// importPathOf returns the unquoted import path.
func importPathOf(s *ast.ImportSpec) string {
	return strings.Trim(s.Path.Value, `"`)
}
