package bench

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// WideTables is the synthetic catalog width used by the catalog-scaling
// benchmark (E18): enough tables that most registered ASTs are disjoint from
// any single-table query, which is exactly the situation the signature index
// is built for.
const WideTables = 64

// NewWideEnv builds an environment over numTables small synthetic tables
// t0 … t{numTables-1}(k, g, v), each loaded with rowsPer rows. E18's
// interesting dimension is the number of registered ASTs, not data volume, so
// the tables stay tiny.
func NewWideEnv(numTables, rowsPer int) *Env {
	cat := catalog.New()
	store := storage.NewStore()
	for i := 0; i < numTables; i++ {
		meta := &catalog.Table{
			Name: fmt.Sprintf("t%d", i),
			Columns: []catalog.Column{
				{Name: "k", Type: sqltypes.KindInt},
				{Name: "g", Type: sqltypes.KindInt},
				{Name: "v", Type: sqltypes.KindInt},
			},
			PrimaryKey: []string{"k"},
		}
		cat.MustAddTable(meta)
		td := store.Create(meta)
		for r := 0; r < rowsPer; r++ {
			td.MustInsert(
				sqltypes.NewInt(int64(r)),
				sqltypes.NewInt(int64(r%8)),
				sqltypes.NewInt(int64(r*3)))
		}
	}
	return &Env{
		Cat:    cat,
		Store:  store,
		Engine: exec.NewEngine(store),
		RW:     core.NewRewriter(cat, core.Options{}),
		ASTs:   map[string]*core.CompiledAST{},
	}
}

// RegisterWideASTs registers count grouping ASTs round-robin across the wide
// tables (AST j summarizes t{j mod numTables}) and returns them in
// registration order. With a query over t0, only every numTables-th AST can
// possibly match — the signature index should refuse the rest without running
// the matcher.
func RegisterWideASTs(e *Env, count, numTables int) ([]*core.CompiledAST, error) {
	asts := make([]*core.CompiledAST, 0, count)
	for j := 0; j < count; j++ {
		name := fmt.Sprintf("w%03d", j)
		sql := fmt.Sprintf("select g as g, count(*) as c, sum(v) as s from t%d group by g", j%numTables)
		ca, err := e.RegisterAST(name, sql)
		if err != nil {
			return nil, err
		}
		asts = append(asts, ca)
	}
	return asts, nil
}

// WideQuery is the probe query for the catalog-scaling benchmark: a
// single-table aggregate over t0.
const WideQuery = "select g, count(*) as c from t0 group by g"
