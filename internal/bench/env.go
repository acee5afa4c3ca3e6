// Package bench holds what the repository's tests, benchmarks and tools share
// about the paper: the figures' queries and summary tables (Queries, ASTDefs,
// Pairings), an Env that loads the Figure 1 star schema at a given scale, and
// the wide catalog of the catalog-scaling benchmark. The figures themselves
// are asserted by tests (internal/core's TestFigure*, astdb's selection
// goldens) and timed by the root bench_test.go.
package bench

import (
	"fmt"
	"sort"

	"repro/astdb"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Env is a loaded database plus a rewriter.
type Env struct {
	Cat    *catalog.Catalog
	Store  *storage.Store
	Engine *exec.Engine
	RW     *core.Rewriter
	ASTs   map[string]*core.CompiledAST
}

// NewEnv builds the star schema at the given fact-table size and seed.
func NewEnv(numTrans int, opts core.Options) *Env {
	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: numTrans, Seed: 20000521})
	return &Env{
		Cat:    cat,
		Store:  store,
		Engine: exec.NewEngine(store),
		RW:     core.NewRewriter(cat, opts),
		ASTs:   map[string]*core.CompiledAST{},
	}
}

// NewEnvDefault is NewEnv with the paper-faithful default options.
func NewEnvDefault(numTrans int) *Env { return NewEnv(numTrans, core.Options{}) }

// DB wraps the environment in the astdb facade, handing it the summary tables
// registered so far in name order (ASTs registered afterwards are not seen).
func (e *Env) DB(opts ...astdb.Option) *astdb.Engine {
	names := make([]string, 0, len(e.ASTs))
	for n := range e.ASTs {
		names = append(names, n)
	}
	sort.Strings(names)
	asts := make([]*core.CompiledAST, 0, len(names))
	for _, n := range names {
		asts = append(asts, e.ASTs[n])
	}
	return astdb.Wrap(e.RW, e.Engine, asts, opts...)
}

// RegisterAST compiles an AST definition, materializes it into the store, and
// records it for matching.
func (e *Env) RegisterAST(name, sql string) (*core.CompiledAST, error) {
	ca, err := e.RW.CompileAST(catalog.ASTDef{Name: name, SQL: sql})
	if err != nil {
		return nil, err
	}
	res, err := e.Engine.Run(ca.Graph)
	if err != nil {
		return nil, fmt.Errorf("bench: materializing %s: %w", name, err)
	}
	e.Store.PutRows(ca.Table, res.Rows)
	e.ASTs[name] = ca
	return ca, nil
}

// MustRegisterAST is RegisterAST that panics on error.
func (e *Env) MustRegisterAST(name, sql string) *core.CompiledAST {
	ca, err := e.RegisterAST(name, sql)
	if err != nil {
		panic(err)
	}
	return ca
}
