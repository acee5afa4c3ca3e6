package exec

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/qgm"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// chunkedTables builds a fact table of exactly `chunks` full storage chunks
// and a five-row dimension. Every chunk holds the same mix of values, so the
// group cardinality and the per-chunk selection counts of the queries below
// do not depend on the chunk count.
func chunkedTables(chunks int) (*catalog.Catalog, *storage.Store) {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{Name: "f", Columns: []catalog.Column{
		{Name: "g", Type: sqltypes.KindInt},
		{Name: "d", Type: sqltypes.KindDate},
		{Name: "v", Type: sqltypes.KindInt},
		{Name: "fk", Type: sqltypes.KindInt},
	}})
	cat.MustAddTable(&catalog.Table{Name: "dim", Columns: []catalog.Column{
		{Name: "dk", Type: sqltypes.KindInt},
		{Name: "nm", Type: sqltypes.KindString},
	}})
	store := storage.NewStore()
	fm, _ := cat.Table("f")
	dm, _ := cat.Table("dim")
	rows := make([][]sqltypes.Value, chunks*storage.ChunkRows)
	for i := range rows {
		rows[i] = []sqltypes.Value{
			sqltypes.NewInt(int64(i % 7)),
			sqltypes.NewDate(1990+i%3, 1+i%12, 1+i%28),
			sqltypes.NewInt(int64(i % 1000)),
			sqltypes.NewInt(int64(i % 5)),
		}
	}
	store.Put(fm, rows)
	dimRows := make([][]sqltypes.Value, 5)
	for i := range dimRows {
		dimRows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("n%d", i%3))}
	}
	store.Put(dm, dimRows)
	return cat, store
}

// TestGroupByAllocsDoNotScaleWithChunks: the fused GROUP BY and the star-join
// GROUP BY allocate per worker, per group-table growth step and per output
// row block — not per chunk. Eight times the chunks, same groups: the
// allocation counts may differ by a few (scratch that doubles once more),
// not by a multiple. The last three queries are there for the hash scratch:
// key cells that are not the vector's own payload (strings, floats), two
// probes' ordinals, three key columns, a key set.
func TestGroupByAllocsDoNotScaleWithChunks(t *testing.T) {
	queries := map[string]string{
		"fused": `select g, year(d) as y, count(*) as c, sum(v * 2) as s, min(v) as lo
			from f where v % 2 = 0 and month(d) > 1 group by g, year(d)`,
		"star": `select nm, year(d) as y, count(*) as c, sum(v) as s
			from f, dim where fk = dk and v % 2 = 0 group by grouping sets((nm, year(d)), (nm))`,
		"twodims": `select a.nm, b.nm as bn, g, count(*) as c, max(v) as hi
			from f, dim a, dim b where fk = a.dk and g = b.dk and v % 2 = 0 group by a.nm, b.nm, g`,
		"floatkey": `select v * 0.5 as h, count(*) as c from f where v < 100 group by v * 0.5`,
		// A key set's probe: its table is built once per run, its scratch once
		// per worker.
		"keyset": `select g, year(d) as y, month(d) as m, min(v) as lo, max(v) as hi from f
			where (g = 1 and year(d) = 1990 and month(d) = 1) or (g = 2 and year(d) = 1991 and month(d) = 5)
			or (g = 3 and year(d) = 1992 and month(d) = 9) or (g = 5 and year(d) = 1990 and month(d) = 12)
			group by g, year(d), month(d)`,
	}
	allocs := func(chunks, par int, sql string) float64 {
		cat, store := chunkedTables(chunks)
		g, err := qgm.BuildSQL(sql, cat)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(store)
		return testing.AllocsPerRun(5, func() {
			res, err := e.RunCtx(context.Background(), g, Config{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if res.Mode != ModeVectorized {
				t.Fatalf("mode %s", res.Mode)
			}
		})
	}
	const slack = 8
	for name, sql := range queries {
		for _, par := range []int{1, 2} {
			small, large := allocs(8, par, sql), allocs(64, par, sql)
			t.Logf("%s parallelism=%d: %.0f allocs over 8 chunks, %.0f over 64", name, par, small, large)
			if large > small+slack {
				t.Errorf("%s parallelism=%d: allocations scale with chunks: %.0f over 8, %.0f over 64", name, par, small, large)
			}
		}
	}
}

// TestKeyScratchIsSizedByTheStrip: the buffers behind findBatch are as long as
// the strip of rows they are used on — three rows' worth for a three-row
// table, never more than stripRows however long the chunk — and grow by
// doubling.
func TestKeyScratchIsSizedByTheStrip(t *testing.T) {
	var v sqltypes.Vec
	for i := 0; i < storage.ChunkRows; i++ {
		v.AppendValue(sqltypes.NewString(fmt.Sprintf("s%d", i%50))) // strings: the cells are not the payload
	}
	keys, tab := make([]keyCol, 1), newGroupTable(1, nil)
	var hash [stripRows]uint64
	var ords [stripRows]uint32
	lookup := func(lo, n int) {
		keys[0].load(&v, lo, n)
		tab.findBatch(keys, []int{0}, hash[:n], ords[:n], true)
	}
	lookup(0, 3)
	if c, w := cap(keys[0].classes), cap(keys[0].buf); c != 3 || w != 3 {
		t.Fatalf("after a 3-row strip: %d classes, %d words", c, w)
	}
	lookup(3, 5)
	if c, w := cap(keys[0].classes), cap(keys[0].buf); c != 6 || w != 6 {
		t.Fatalf("after a 5-row strip: %d classes, %d words, want 3 doubled", c, w)
	}
	for lo := 0; lo < v.Len(); lo += stripRows {
		lookup(lo, stripRows)
	}
	if c, w := cap(keys[0].classes), cap(keys[0].buf); c != stripRows || w != stripRows || tab.n != 50 {
		t.Fatalf("after a %d-row chunk: %d classes, %d words, %d groups", v.Len(), c, w, tab.n)
	}
	// An integer column without NULLs is its own key cells: nothing is buffered.
	var ints sqltypes.Vec
	for i := 0; i < stripRows; i++ {
		ints.AppendValue(sqltypes.NewInt(int64(i)))
	}
	var k keyCol
	if k.load(&ints, 0, stripRows); cap(k.classes) != 0 || cap(k.buf) != 0 || &k.words[0] != &ints.Ints()[0] {
		t.Fatalf("integer key column was copied: %d classes, %d words", cap(k.classes), cap(k.buf))
	}
}

// TestScratchReuseMatchesRowEngine runs expressions whose kernels could trip
// over each other's scratch — a column or sub-expression used twice in one
// tree, two constants meeting, a filter and an output sharing a sub-tree —
// over columns that are nullable, and over one whose payload degrades to the
// generic form in the middle of the table (ints, then a float in the second
// chunk), across enough chunks that every slot is refilled many times. The
// vectorized answers must be bit-identical to the row engine's, serially and
// (run under -race in CI) with two workers.
func TestScratchReuseMatchesRowEngine(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(&catalog.Table{Name: "t", Columns: []catalog.Column{
		{Name: "a", Type: sqltypes.KindInt, Nullable: true},
		{Name: "d", Type: sqltypes.KindDate, Nullable: true},
		{Name: "m", Type: sqltypes.KindInt, Nullable: true},
		{Name: "s", Type: sqltypes.KindString},
	}})
	meta, _ := cat.Table("t")
	store := storage.NewStore()
	const n = 5*storage.ChunkRows + 300
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		a, d, m := sqltypes.NewInt(int64(i%97-40)), sqltypes.NewDate(1990+i%4, 1+i%12, 1+i%28), sqltypes.NewInt(int64(i%50))
		if i%11 == 0 {
			a = sqltypes.Null
		}
		if i%13 == 0 {
			d = sqltypes.Null
		}
		switch {
		case i%17 == 0:
			m = sqltypes.Null
		case i > storage.ChunkRows+200 && i%5 == 0:
			m = sqltypes.NewFloat(float64(i%50) + 0.5) // degrades chunk 1 mid-way; later chunks start mixed
		}
		rows[i] = []sqltypes.Value{a, d, m, sqltypes.NewString(fmt.Sprintf("s%d", i%6))}
	}
	store.Put(meta, rows)

	queries := []string{
		"select a * a + a as x from t",
		"select a * a + a as x from t where a > 0",
		"select year(d) - year(d) as z, month(d) + month(d) as mm from t where day(d) < 20",
		"select 1 + 2 as three, a + (3 * 4) as y from t where 2 > 1 and a < 30",
		"select a * a as sq from t where a * a > 100",
		"select a * a as sq, count(*) as c, sum(a * a) as ss from t where a * a > 100 group by a * a",
		"select m * 2 as m2, m + m as mm from t where m + m > 10",
		"select s, sum(m * 2) as sm, min(m + m) as lo, max(m) as hi, count(m) as c from t group by s",
		"select s || s as ss, s || '-' as sd from t where a is not null",
		"select year(d) as y, s, sum(a * a + a) as x from t where a + a < 60 group by grouping sets((year(d), s), (s), ())",
	}
	engine := NewEngine(store)
	for _, sql := range queries {
		g, err := qgm.BuildSQL(sql, cat)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		row, err := engine.RunCtx(context.Background(), g, Config{Interpret: true})
		if err != nil {
			t.Fatalf("%s (row): %v", sql, err)
		}
		for _, par := range []int{1, 2} {
			vec, err := engine.RunCtx(context.Background(), g, Config{Parallelism: par})
			if err != nil {
				t.Fatalf("%s (vectorized, parallelism %d): %v", sql, par, err)
			}
			if vec.Mode != ModeVectorized {
				t.Fatalf("%s: mode %s", sql, vec.Mode)
			}
			if par == 1 {
				requireIdentical(t, sql, row, vec)
			} else if diff := EqualResults(row, vec); diff != "" {
				t.Fatalf("%s (parallelism 2): %s", sql, diff)
			}
		}
	}
}
