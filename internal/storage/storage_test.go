package storage

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqltypes"
)

func meta() *catalog.Table {
	return &catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "a", Type: sqltypes.KindInt},
			{Name: "b", Type: sqltypes.KindString},
		},
	}
}

func TestCreateInsertLookup(t *testing.T) {
	s := NewStore()
	td := s.Create(meta())
	td.MustInsert(sqltypes.NewInt(1), sqltypes.NewString("x"))
	td.MustInsert(sqltypes.NewInt(2), sqltypes.NewString("y"))
	got, ok := s.Table("T") // case-insensitive
	if !ok || got.Cardinality() != 2 {
		t.Fatalf("lookup: ok=%v card=%d", ok, got.Cardinality())
	}
}

func TestInsertArityCheck(t *testing.T) {
	s := NewStore()
	td := s.Create(meta())
	if err := td.Insert([]sqltypes.Value{sqltypes.NewInt(1)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestPutReplaces(t *testing.T) {
	s := NewStore()
	s.Create(meta())
	rows := [][]sqltypes.Value{{sqltypes.NewInt(9), sqltypes.NewString("z")}}
	s.Put(meta(), rows)
	if s.MustTable("t").Cardinality() != 1 {
		t.Fatal("Put did not replace")
	}
}

func TestDropAndMustTablePanic(t *testing.T) {
	s := NewStore()
	s.Create(meta())
	s.Drop("t")
	defer func() {
		if recover() == nil {
			t.Fatal("MustTable on missing table should panic")
		}
	}()
	s.MustTable("t")
}

// TestChunkRowRoundTrip pins the dual representation: rows loaded through
// Insert land in column chunks, and both the row-view adapter and the chunk
// snapshot reproduce them exactly, across chunk boundaries.
func TestChunkRowRoundTrip(t *testing.T) {
	s := NewStore()
	td := s.Create(meta())
	n := ChunkRows*2 + 37
	for i := 0; i < n; i++ {
		b := sqltypes.NewString(string(rune('a' + i%26)))
		if i%7 == 0 {
			b = sqltypes.Null
		}
		td.MustInsert(sqltypes.NewInt(int64(i)), b)
	}
	rows := td.Snapshot()
	if len(rows) != n {
		t.Fatalf("row view has %d rows, want %d", len(rows), n)
	}
	chunks, cn := td.SnapshotChunks()
	if cn != n || len(chunks) != 3 {
		t.Fatalf("chunk snapshot: n=%d chunks=%d", cn, len(chunks))
	}
	ri := 0
	for _, c := range chunks {
		for i := 0; i < c.N; i++ {
			for j := range c.Cols {
				got, want := c.Cols[j].Value(i), rows[ri][j]
				if got.Kind() != want.Kind() || got.String() != want.String() {
					t.Fatalf("row %d col %d: chunk %v vs row %v", ri, j, got, want)
				}
			}
			ri++
		}
	}
}

// TestSnapshotStability pins the copy-on-write contract for both views:
// snapshots taken before appends never see them.
func TestSnapshotStability(t *testing.T) {
	s := NewStore()
	td := s.Create(meta())
	td.MustInsert(sqltypes.NewInt(1), sqltypes.NewString("x"))
	rows := td.Snapshot()
	chunks, cn := td.SnapshotChunks()
	td.MustInsert(sqltypes.NewInt(2), sqltypes.Null)
	if len(rows) != 1 || cn != 1 || chunks[0].N != 1 {
		t.Fatalf("snapshots moved: rows=%d chunk n=%d", len(rows), chunks[0].N)
	}
	if chunks[0].Cols[1].IsNull(0) {
		t.Fatal("null bit from a later append leaked into the frozen chunk")
	}
	rows2 := td.Snapshot()
	c2, n2 := td.SnapshotChunks()
	if len(rows2) != 2 || n2 != 2 || c2[0].N != 2 {
		t.Fatalf("fresh snapshots stale: rows=%d n=%d", len(rows2), n2)
	}
}

// TestLookupFoldCases pins the key-normalization invariant: writers register
// lowercase keys once and every lookup spelling folds to them.
func TestLookupFoldCases(t *testing.T) {
	s := NewStore()
	m := meta()
	m.Name = "Trans"
	s.Create(m)
	for _, name := range []string{"trans", "TRANS", "Trans", "tRaNs"} {
		if _, ok := s.Table(name); !ok {
			t.Fatalf("lookup %q failed", name)
		}
	}
	if _, ok := s.Table("transx"); ok {
		t.Fatal("lookup of unknown table succeeded")
	}
}

// TestConcurrentReadersAndInserts drives concurrent snapshot readers (both
// views) against an inserting writer; run under -race it proves the frozen
// header discipline (cloned tail bitmaps, append-past-length payloads).
func TestConcurrentReadersAndInserts(t *testing.T) {
	s := NewStore()
	td := s.Create(meta())
	const writes = 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writes; i++ {
			v := sqltypes.Value(sqltypes.NewInt(int64(i)))
			b := sqltypes.Value(sqltypes.NewString("s"))
			if i%11 == 0 {
				b = sqltypes.Null
			}
			td.MustInsert(v, b)
		}
	}()
	for r := 0; r < 4; r++ {
		go func() {
			for {
				select {
				case <-done:
					return
				default:
				}
				rows, _ := s.Scan("t")
				chunks, n := td.SnapshotChunks()
				if len(rows) > writes || n > writes {
					panic("snapshot overshoot")
				}
				sum := 0
				for _, c := range chunks {
					for i := 0; i < c.N; i++ {
						if !c.Cols[0].IsNull(i) {
							sum += int(c.Cols[0].Value(i).Int())
						}
					}
				}
				_ = sum
			}
		}()
	}
	<-done
	if td.Cardinality() != writes {
		t.Fatalf("cardinality %d, want %d", td.Cardinality(), writes)
	}
}

// TestHotPathAllocs pins the allocation counts of the paths that go through
// an rcu closure or an rcu.Map lookup at what they were with hand-rolled
// atomic pointers: an Insert allocates the frozen chunk list, the frozen tail
// chunk with its column headers, and the next view; a lookup allocates
// nothing, folded or not.
func TestHotPathAllocs(t *testing.T) {
	s := NewStore()
	m := meta()
	m.Name = "Trans"
	td := s.Create(m)
	row := []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewString("x")}
	insert := func() {
		if err := td.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(500, insert); got > 4 {
		t.Errorf("Insert (cold row view): %v allocs per row, want <= 4", got)
	}
	td.Snapshot()
	if got := testing.AllocsPerRun(500, insert); got > 4 {
		t.Errorf("Insert (warm row view): %v allocs per row, want <= 4", got)
	}
	for _, name := range []string{"trans", "TrAns"} {
		if got := testing.AllocsPerRun(500, func() { s.Table(name) }); got != 0 {
			t.Errorf("Table(%q): %v allocs, want 0", name, got)
		}
	}
}
