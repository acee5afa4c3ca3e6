package storage

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sqltypes"
)

// rewriteFixture is a store holding table t of n rows (i, "s<i%5>"), every
// 7th b NULL, and the same rows as a model.
func rewriteFixture(n int) (*Store, [][]sqltypes.Value) {
	s := NewStore()
	td := s.Create(meta())
	model := make([][]sqltypes.Value, n)
	for i := range model {
		b := sqltypes.NewString(string(rune('s' + i%5)))
		if i%7 == 0 {
			b = sqltypes.Null
		}
		model[i] = []sqltypes.Value{sqltypes.NewInt(int64(i)), b}
		td.MustInsert(model[i]...)
	}
	return s, model
}

func row(i int64) []sqltypes.Value {
	return []sqltypes.Value{sqltypes.NewInt(i), sqltypes.NewString("new")}
}

// edit is one position of a test's rewrite: the row at pos is replaced by
// row, or dropped when row is nil.
type edit struct {
	pos int
	row []sqltypes.Value
}

// changes is edits and add as a Rewrite's chunk-form Changes.
func changes(edits []edit, add [][]sqltypes.Value) Changes {
	var ch Changes
	var with [][]sqltypes.Value
	for _, e := range edits {
		if e.row == nil {
			ch.Drop = append(ch.Drop, e.pos)
		} else {
			ch.Set, with = append(ch.Set, e.pos), append(with, e.row)
		}
	}
	if with != nil {
		ch.With = Chunked(2, with)
	}
	if add != nil {
		ch.Add = Chunked(2, add)
	}
	return ch
}

// applyModel is Rewrite on a [][]Value.
func applyModel(model [][]sqltypes.Value, edits []edit, add [][]sqltypes.Value) [][]sqltypes.Value {
	var out [][]sqltypes.Value
	for pos, r := range model {
		if len(edits) > 0 && edits[0].pos == pos {
			if r = edits[0].row; r != nil {
				out = append(out, r)
			}
			edits = edits[1:]
			continue
		}
		out = append(out, r)
	}
	return append(out, add...)
}

// checkLayout fails unless, in the store's published generation, table t's
// chunks are none of them empty and cover its n rows, any two neighbours
// holding more than ChunkRows rows together, so that there are at most
// 2·⌈n/ChunkRows⌉ − 1 — unless it was Put short chunks (put) — and every
// column of every table a reader can reach is sealed. (A short tail may be
// sealed — Put it, or a patch of it: the Writer continues it in a copy.)
func checkLayout(t *testing.T, s *Store, put ...*Chunk) {
	t.Helper()
	gen := s.cell.Load()
	for _, other := range gen.tables {
		for i, c := range other.frozen {
			for j := range c.Width() {
				if !c.Col(j).Sealed() {
					t.Fatalf("%s: chunk %d column %d of the generation is not sealed", other.Meta.Name, i, j)
				}
			}
		}
	}
	td := s.MustTable("t")
	chunks, n := td.SnapshotChunks()
	sum := 0
	for i, c := range chunks {
		if c.Len() == 0 || put == nil && i > 0 && chunks[i-1].Len()+c.Len() <= ChunkRows {
			t.Fatalf("chunk %d of %d holds %d rows: none may be empty, nor two neighbours fit in one", i, len(chunks), c.Len())
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
	if bound := 2*((n+ChunkRows-1)/ChunkRows) + 1; put == nil && len(chunks) > bound {
		t.Fatalf("%d chunks for %d rows, above %d", len(chunks), n, bound)
	}
}

// TestRewriteSharesUnchangedChunks: Rewrite shares a chunk exactly when no
// change reaches it and it does not fit into a rebuilt neighbour, and
// answers the model.
func TestRewriteSharesUnchangedChunks(t *testing.T) {
	const n = 3*ChunkRows + 100
	for _, c := range []struct {
		name   string
		edits  []edit
		add    [][]sqltypes.Value
		shared []bool // per old chunk: still in the table at its index, pointer-identical
	}{
		{"replace and drop in chunk 2, append", []edit{{2*ChunkRows + 5, row(-1)}, {2*ChunkRows + 7, nil}},
			[][]sqltypes.Value{row(-2), row(-3)}, []bool{true, true, false, false}},
		{"append only", nil, [][]sqltypes.Value{row(-2)}, []bool{true, true, true, false}},
		{"replace in chunk 0 keeps the rest in place", []edit{{5, row(-1)}}, nil, []bool{false, true, true, false}},
		{"replace the last row of chunk 1", []edit{{2*ChunkRows - 1, row(-1)}}, nil, []bool{true, false, true, false}},
		{"drop at position 0 shifts everything", []edit{{0, nil}}, nil, []bool{false, true, true, false}}, // every position shifts; only chunk 0 is rebuilt
		{"replace at position 0 and drop in chunk 1", []edit{{0, row(-1)}, {ChunkRows + 1, nil}}, nil, []bool{false, false, true, false}},
		{"drop chunk 1 whole", dropRange(ChunkRows, 2*ChunkRows), nil, []bool{true, false, false, false}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, model := rewriteFixture(n)
			before, _ := s.MustTable("t").SnapshotChunks()
			if err := s.Rewrite("t", changes(c.edits, c.add)); err != nil {
				t.Fatal(err)
			}
			after, _ := s.MustTable("t").SnapshotChunks()
			for i, want := range c.shared {
				if got := i < len(after) && after[i] == before[i]; got != want {
					t.Errorf("old chunk %d shared: %v, want %v", i, got, want)
				}
			}
			checkLayout(t, s)
			sameRows(t, s.MustTable("t").Snapshot(), applyModel(model, c.edits, c.add))
		})
	}
}

// TestRewriteRejectsAndChangesNothing: positions out of order or out of
// range, a position both dropped and set, set rows that do not match the set
// positions, or a chunk of the wrong width, is an error that publishes
// nothing.
func TestRewriteRejectsAndChangesNothing(t *testing.T) {
	s, model := rewriteFixture(ChunkRows + 3)
	before := s.MustTable("t")
	narrow := NewChunk(1, []sqltypes.Vec{{}})
	for _, c := range []struct {
		name string
		ch   Changes
	}{
		{"out of order", Changes{Drop: []int{9, 4}}},
		{"repeated position", Changes{Drop: []int{4, 4}}},
		{"past the end", Changes{Drop: []int{ChunkRows + 3}}},
		{"dropped and set", Changes{Drop: []int{1}, Set: []int{1}, With: Chunked(2, [][]sqltypes.Value{row(1)})}},
		{"set without its rows", Changes{Set: []int{1, 2}, With: Chunked(2, [][]sqltypes.Value{row(1)})}},
		{"narrow set chunk", Changes{Set: []int{1}, With: []*Chunk{narrow}}},
		{"narrow appended chunk", Changes{Add: []*Chunk{narrow}}},
	} {
		if err := s.Rewrite("t", c.ch); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := s.Rewrite("t", Changes{}); err != nil || s.MustTable("t") != before {
		t.Fatalf("an empty rewrite: %v, or it published a generation", err)
	}
	if s.MustTable("t") != before {
		t.Fatal("a rejected rewrite published a generation")
	}
	sameRows(t, before.Snapshot(), model)
}

// TestRewriteSealsAnOpenChunkBeforeAKeptOne: a table Put as sealed chunks,
// its short first rewritten (rows re-added through the Writer) and its full
// second kept, must not publish the Writer's open chunk in the middle.
func TestRewriteSealsAnOpenChunkBeforeAKeptOne(t *testing.T) {
	s, model := rewriteFixture(ChunkRows + 2)
	put := append(Chunked(2, model[:2]), Chunked(2, model[2:])...)
	s.Put(meta(), put)
	edits := []edit{{0, row(-1)}}
	if err := s.Rewrite("t", changes(edits, nil)); err != nil {
		t.Fatal(err)
	}
	if chunks, _ := s.MustTable("t").SnapshotChunks(); len(chunks) != 2 || chunks[1] != put[1] {
		t.Fatalf("chunks %v, want a rebuilt first chunk and the second kept", chunks)
	}
	checkLayout(t, s, put...)
	sameRows(t, s.MustTable("t").Snapshot(), applyModel(model, edits, nil))
}

// TestRewriteFoldsShortNeighbours: a chunk rebuilt short takes in the short
// chunk after it, and a row appended after a short sealed tail goes into a
// copy of it, so churn at one place leaves full chunks behind.
func TestRewriteFoldsShortNeighbours(t *testing.T) {
	s, model := rewriteFixture(0)
	model = [][]sqltypes.Value{row(1), row(2), row(3), row(4), row(5)}
	put := append(Chunked(2, model[:2]), Chunked(2, model[2:])...)
	s.Put(meta(), put)
	edits, add := []edit{{1, nil}}, [][]sqltypes.Value{row(6)}
	if err := s.Rewrite("t", changes(edits, add)); err != nil {
		t.Fatal(err)
	}
	if chunks, _ := s.MustTable("t").SnapshotChunks(); len(chunks) != 1 {
		t.Fatalf("%d chunks, want the two short ones folded into one", len(chunks))
	}
	checkLayout(t, s)
	sameRows(t, s.MustTable("t").Snapshot(), applyModel(model, edits, add))
	for i, c := range put {
		sameRows(t, Rows([]*Chunk{c}, c.Len()), [][][]sqltypes.Value{model[:2], model[2:]}[i])
	}
	s.Put(meta(), put[:1])
	s.MustTable("t").MustInsert(row(7)...)
	if chunks, _ := s.MustTable("t").SnapshotChunks(); len(chunks) != 1 || chunks[0].Len() != 3 {
		t.Fatalf("%d chunks after an insert behind a short sealed one, want it continued in a copy", len(chunks))
	}
	sameRows(t, Rows(put[:1], 2), model[:2])
}

// TestRewritePatchSharesUnchangedColumns: a chunk whose rows are only set
// keeps each column none of whose cells change — the chunk itself when no
// cell does — and copies the rest; the open tail stays open.
func TestRewritePatchSharesUnchangedColumns(t *testing.T) {
	s, model := rewriteFixture(ChunkRows + 10)
	before, _ := s.MustTable("t").SnapshotChunks()
	same := []edit{{3, model[3]}, {ChunkRows + 2, model[ChunkRows+2]}}
	if err := s.Rewrite("t", changes(same, nil)); err != nil {
		t.Fatal(err)
	}
	if after, _ := s.MustTable("t").SnapshotChunks(); after[0] != before[0] {
		t.Fatal("setting rows to themselves rebuilt a chunk")
	}
	edits := []edit{{3, []sqltypes.Value{model[3][0], sqltypes.NewString("new")}}, {ChunkRows + 2, []sqltypes.Value{model[ChunkRows+2][0], sqltypes.Null}}}
	if err := s.Rewrite("t", changes(edits, [][]sqltypes.Value{row(-1)})); err != nil {
		t.Fatal(err)
	}
	after, _ := s.MustTable("t").SnapshotChunks()
	if &after[0].Col(0).Ints()[0] != &before[0].Col(0).Ints()[0] || after[0].Col(1) == before[0].Col(1) ||
		&after[0].Col(1).Strs()[0] == &before[0].Col(1).Strs()[0] || &after[1].Col(0).Ints()[0] != &before[1].Col(0).Ints()[0] {
		t.Fatal("a set-only chunk did not share its unchanged column and copy the changed one")
	}
	checkLayout(t, s)
	sameRows(t, s.MustTable("t").Snapshot(), applyModel(applyModel(model, same, nil), edits, [][]sqltypes.Value{row(-1)}))
}

// dropRange is the edits dropping positions lo to hi.
func dropRange(lo, hi int) []edit {
	var edits []edit
	for p := lo; p < hi; p++ {
		edits = append(edits, edit{p, nil})
	}
	return edits
}

// TestRewriteKeepsOldGenerations: readers holding a generation keep reading
// its rows while a writer rewrites the table under them (run with -race: the
// rebuilt chunks must never be the ones an earlier generation reads).
func TestRewriteKeepsOldGenerations(t *testing.T) {
	s, model := rewriteFixture(2*ChunkRows + 50)
	chunks, n := s.MustTable("t").SnapshotChunks()
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
		edits := []edit{{i, row(int64(-i))}, {ChunkRows + i, nil}}
		if err := s.Rewrite("t", changes(edits, [][]sqltypes.Value{row(int64(i))})); err != nil {
			t.Fatal(err)
		}
		s.MustTable("t").MustInsert(row(int64(i))...)
	}
	wg.Wait()
	checkLayout(t, s)
}

// FuzzStoreRewrite: a table of zero to three chunks — filled by Insert, or
// Put as short sealed chunks of 1 to short rows each, as a cube's per-set
// output — through four rounds of rows replaced, dropped and appended at
// random — on the live store, or on a pinned one that publishes nothing until
// its Commit — against the same edits applied to a [][]Value, then an Insert
// on top: the rows, their order and the chunk layout (its chunk count
// bounded, unless Put) must agree, after each step every published column is
// sealed and the tail still grows, and the Put chunks still hold what they
// held (a write into one would also panic on its seal).
func FuzzStoreRewrite(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint8(3), int64(1), uint8(0))
	f.Add(uint16(ChunkRows), uint16(1), uint8(0), int64(2), uint8(0))
	f.Add(uint16(3*ChunkRows), uint16(40), uint8(10), int64(3), uint8(0))
	f.Add(uint16(2*ChunkRows+17), uint16(900), uint8(200), int64(4), uint8(0))
	f.Add(uint16(ChunkRows+5), uint16(30), uint8(2), int64(5), uint8(0))
	f.Add(uint16(2*ChunkRows), uint16(0), uint8(40), int64(7), uint8(0))
	f.Add(uint16(40), uint16(0), uint8(3), int64(8), uint8(7))
	f.Add(uint16(ChunkRows+300), uint16(5), uint8(9), int64(9), uint8(200))
	f.Add(uint16(700), uint16(400), uint8(0), int64(10), uint8(1))
	f.Add(uint16(1), uint16(175), uint8(0), int64(-25), uint8('J')) // a Put tail patched: sealed and short
	f.Fuzz(func(t *testing.T, n, nEdits uint16, nAdd uint8, seed int64, short uint8) {
		rng := rand.New(rand.NewSource(seed))
		s, model := rewriteFixture(int(n) % (3*ChunkRows + 1))
		var put []*Chunk
		var held [][][]sqltypes.Value
		for lo := 0; short > 0 && lo < len(model); {
			hi := min(len(model), lo+1+rng.Intn(int(short)))
			put = append(put, Chunked(2, model[lo:hi])...)
			held, lo = append(held, model[lo:hi]), hi
		}
		if put != nil {
			s.Put(meta(), put)
		}
		value := func() sqltypes.Value {
			switch rng.Intn(4) {
			case 0:
				return sqltypes.Null
			case 1:
				return sqltypes.NewFloat(rng.Float64()) // a second kind degrades the column
			}
			return sqltypes.NewString("x")
		}
		// Churn: rounds of rewrites, each on what the last one left, with the
		// set rows in chunks of 0 to short+1 rows.
		want := model
		for round := range 4 {
			var edits []edit
			for pos := range want {
				if rng.Intn(len(want)+1) < int(nEdits)%(len(want)+1) {
					e := edit{pos: pos}
					if rng.Intn(2) == 0 {
						e.row = []sqltypes.Value{sqltypes.NewInt(rng.Int63n(100)), value()}
					}
					edits = append(edits, e)
				}
			}
			add := make([][]sqltypes.Value, int(nAdd)>>round)
			for i := range add {
				add[i] = []sqltypes.Value{value(), value()}
			}
			ch := changes(edits, add)
			if ch.With != nil {
				rows := Rows(ch.With, len(ch.Set))
				for ch.With = nil; len(rows) > 0 || rng.Intn(3) == 0; {
					k := min(len(rows), rng.Intn(int(short)+2))
					ch.With, rows = append(ch.With, Chunked(2, rows[:k])...), rows[k:]
					if k == 0 {
						ch.With = append(ch.With, NewChunk(0, make([]sqltypes.Vec, 2)))
					}
				}
			}
			if (seed+int64(round))%2 == 0 {
				if err := s.Rewrite("t", ch); err != nil {
					t.Fatal(err)
				}
			} else {
				before := s.MustTable("t")
				p := s.Pin()
				if err := p.Rewrite("t", ch); err != nil {
					t.Fatal(err)
				}
				if s.MustTable("t") != before {
					t.Fatal("a pinned store's rewrite was published before Commit")
				}
				p.Commit()
			}
			want = applyModel(want, edits, add)
			checkLayout(t, s, put...)
			sameRows(t, s.MustTable("t").Snapshot(), want)
		}
		s.MustTable("t").MustInsert(row(7)...)
		checkLayout(t, s, put...)
		sameRows(t, s.MustTable("t").Snapshot(), append(want, row(7)))
		for i, c := range put {
			sameRows(t, Rows([]*Chunk{c}, c.Len()), held[i])
		}
	})
}
