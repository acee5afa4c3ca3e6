package storage

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sqltypes"
)

// rewriteFixture is a table of n rows (i, "s<i%5>"), every 7th b NULL, and the
// same rows as a model.
func rewriteFixture(n int) (*TableData, [][]sqltypes.Value) {
	td := NewStore().Create(meta())
	model := make([][]sqltypes.Value, n)
	for i := range model {
		b := sqltypes.NewString(string(rune('s' + i%5)))
		if i%7 == 0 {
			b = sqltypes.Null
		}
		model[i] = []sqltypes.Value{sqltypes.NewInt(int64(i)), b}
		td.MustInsert(model[i]...)
	}
	return td, model
}

func row(i int64) []sqltypes.Value {
	return []sqltypes.Value{sqltypes.NewInt(i), sqltypes.NewString("new")}
}

// applyModel is Rewrite on a [][]Value.
func applyModel(model [][]sqltypes.Value, edits []Edit, add [][]sqltypes.Value) [][]sqltypes.Value {
	var out [][]sqltypes.Value
	for pos, r := range model {
		if len(edits) > 0 && edits[0].Pos == pos {
			if r = edits[0].Row; r != nil {
				out = append(out, r)
			}
			edits = edits[1:]
			continue
		}
		out = append(out, r)
	}
	return append(out, add...)
}

// checkLayout fails unless every chunk but the last is full, the chunks cover
// n rows, every column a reader can reach is sealed, and the builder's short
// tail is not, so the table can still grow.
func checkLayout(t *testing.T, td *TableData) {
	t.Helper()
	chunks, n := td.SnapshotChunks()
	sum := 0
	for i, c := range chunks {
		if i < len(chunks)-1 && c.Len() != ChunkRows {
			t.Fatalf("chunk %d of %d holds %d rows: only the last may be short", i, len(chunks), c.Len())
		}
		for j := range c.Width() {
			if !c.Col(j).Sealed() {
				t.Fatalf("chunk %d column %d of the snapshot is not sealed", i, j)
			}
		}
		sum += c.Len()
	}
	if sum != n || td.Cardinality() != n {
		t.Fatalf("chunks cover %d rows, view says %d", sum, n)
	}
	td.builder.Do(func(b *Writer) {
		if k := len(b.chunks); k > 0 && b.chunks[k-1].Len() < ChunkRows && b.chunks[k-1].Col(0).Sealed() {
			t.Fatal("the builder's short tail is sealed: the table cannot grow")
		}
	})
}

// TestRewriteSharesUnchangedChunks: Rewrite shares a full chunk exactly when
// its rows come through unchanged and in place, rebuilds everything else into
// full chunks, and answers the model.
func TestRewriteSharesUnchangedChunks(t *testing.T) {
	const n = 3*ChunkRows + 100
	for _, c := range []struct {
		name   string
		edits  []Edit
		add    [][]sqltypes.Value
		shared []bool // per old chunk: still in the table, pointer-identical
	}{
		{"replace and drop in chunk 2, append", []Edit{{Pos: 2*ChunkRows + 5, Row: row(-1)}, {Pos: 2*ChunkRows + 7}},
			[][]sqltypes.Value{row(-2), row(-3)}, []bool{true, true, false, false}},
		{"append only", nil, [][]sqltypes.Value{row(-2)}, []bool{true, true, true, false}},
		{"replace in chunk 0 keeps the rest in place", []Edit{{Pos: 5, Row: row(-1)}}, nil, []bool{false, true, true, false}},
		{"replace the last row of chunk 1", []Edit{{Pos: 2*ChunkRows - 1, Row: row(-1)}}, nil, []bool{true, false, true, false}},
		{"drop at position 0 shifts everything", []Edit{{Pos: 0}}, nil, []bool{false, false, false, false}},
		{"replace at position 0 and drop in chunk 1", []Edit{{Pos: 0, Row: row(-1)}, {Pos: ChunkRows + 1}}, nil, []bool{false, false, false, false}},
	} {
		t.Run(c.name, func(t *testing.T) {
			td, model := rewriteFixture(n)
			before, _ := td.SnapshotChunks()
			if err := td.Rewrite(c.edits, c.add); err != nil {
				t.Fatal(err)
			}
			after, _ := td.SnapshotChunks()
			for i, want := range c.shared {
				if got := i < len(after) && after[i] == before[i]; got != want {
					t.Errorf("old chunk %d shared: %v, want %v", i, got, want)
				}
			}
			checkLayout(t, td)
			sameRows(t, td.Snapshot(), applyModel(model, c.edits, c.add))
		})
	}
}

// TestRewriteRejectsAndChangesNothing: an edit list out of order or out of
// range, or a row of the wrong arity, is an error that publishes nothing.
func TestRewriteRejectsAndChangesNothing(t *testing.T) {
	td, model := rewriteFixture(ChunkRows + 3)
	before, _ := td.SnapshotChunks()
	for _, c := range []struct {
		name  string
		edits []Edit
		add   [][]sqltypes.Value
	}{
		{"out of order", []Edit{{Pos: 9}, {Pos: 4}}, nil},
		{"repeated position", []Edit{{Pos: 4}, {Pos: 4}}, nil},
		{"past the end", []Edit{{Pos: ChunkRows + 3}}, nil},
		{"short edit row", []Edit{{Pos: 1, Row: row(1)[:1]}}, nil},
		{"short appended row", nil, [][]sqltypes.Value{row(1)[:1]}},
	} {
		if err := td.Rewrite(c.edits, c.add); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if after, _ := td.SnapshotChunks(); &after[0] != &before[0] {
		t.Fatal("a rejected rewrite published a generation")
	}
	sameRows(t, td.Snapshot(), model)
}

// TestRewriteKeepsOldGenerations: readers holding a generation keep reading
// its rows while a writer rewrites the table under them (run with -race: the
// rebuilt chunks must never be the ones an earlier generation reads).
func TestRewriteKeepsOldGenerations(t *testing.T) {
	td, model := rewriteFixture(2*ChunkRows + 50)
	chunks, n := td.SnapshotChunks()
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 20; pass++ {
				pos := 0
				for _, c := range chunks {
					for i := 0; i < c.Len(); i, pos = i+1, pos+1 {
						if got := c.Col(0).Ints()[i]; got != model[pos][0].Int() {
							t.Errorf("old generation row %d reads %d", pos, got)
							return
						}
					}
				}
				if pos != n {
					t.Errorf("old generation covers %d rows, want %d", pos, n)
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		edits := []Edit{{Pos: i, Row: row(int64(-i))}, {Pos: ChunkRows + i}}
		if err := td.Rewrite(edits, [][]sqltypes.Value{row(int64(i))}); err != nil {
			t.Fatal(err)
		}
		td.MustInsert(row(int64(i))...)
	}
	wg.Wait()
	checkLayout(t, td)
}

// FuzzStoreRewrite: a table of zero to three chunks, rows replaced, dropped and
// appended at random, against the same edits applied to a [][]Value, then an
// Insert on top: the rows, their order and the chunk layout must agree, and
// after each step every published column is sealed and the tail still grows.
func FuzzStoreRewrite(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint8(3), int64(1))
	f.Add(uint16(ChunkRows), uint16(1), uint8(0), int64(2))
	f.Add(uint16(3*ChunkRows), uint16(40), uint8(10), int64(3))
	f.Add(uint16(2*ChunkRows+17), uint16(900), uint8(200), int64(4))
	f.Fuzz(func(t *testing.T, n, nEdits uint16, nAdd uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		td, model := rewriteFixture(int(n) % (3*ChunkRows + 1))
		value := func() sqltypes.Value {
			switch rng.Intn(4) {
			case 0:
				return sqltypes.Null
			case 1:
				return sqltypes.NewFloat(rng.Float64()) // a second kind degrades the column
			}
			return sqltypes.NewString("x")
		}
		var edits []Edit
		for pos := range model {
			if rng.Intn(len(model)+1) < int(nEdits)%(len(model)+1) {
				e := Edit{Pos: pos}
				if rng.Intn(2) == 0 {
					e.Row = []sqltypes.Value{sqltypes.NewInt(rng.Int63n(100)), value()}
				}
				edits = append(edits, e)
			}
		}
		add := make([][]sqltypes.Value, nAdd)
		for i := range add {
			add[i] = []sqltypes.Value{value(), value()}
		}
		if err := td.Rewrite(edits, add); err != nil {
			t.Fatal(err)
		}
		want := applyModel(model, edits, add)
		checkLayout(t, td)
		sameRows(t, td.Snapshot(), want)
		td.MustInsert(row(7)...)
		checkLayout(t, td)
		sameRows(t, td.Snapshot(), append(want, row(7)))
	})
}
