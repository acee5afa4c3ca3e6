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

// TestChunkRowRoundTrip: rows loaded through Insert land in column chunks,
// and Snapshot, which materializes rows from those chunks per call,
// reproduces them exactly and in order across chunk boundaries.
func TestChunkRowRoundTrip(t *testing.T) {
	s := NewStore()
	td := s.Create(meta())
	n := ChunkRows*2 + 37
	want := make([][]sqltypes.Value, n)
	for i := range want {
		b := sqltypes.NewString(string(rune('a' + i%26)))
		if i%7 == 0 {
			b = sqltypes.Null
		}
		want[i] = []sqltypes.Value{sqltypes.NewInt(int64(i)), b}
		td.MustInsert(want[i]...)
	}
	chunks, cn := td.SnapshotChunks()
	if cn != n || len(chunks) != 3 || chunks[0].Len() != ChunkRows || chunks[1].Len() != ChunkRows {
		t.Fatalf("chunk snapshot: n=%d chunks=%d", cn, len(chunks))
	}
	sameRows(t, td.Snapshot(), want)
	if a, b := td.Snapshot(), td.Snapshot(); &a[0][0] == &b[0][0] {
		t.Fatal("two Snapshots share rows: the store keeps a row copy")
	}
}

// sameRows fails unless got and want hold identical values row for row.
func sameRows(t *testing.T, got, want [][]sqltypes.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !sqltypes.Identical(got[i][j], want[i][j]) {
				t.Fatalf("row %d col %d: %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestSnapshotStability pins the copy-on-write contract: a chunk snapshot
// taken before an append never sees it, not even through the null bitmap the
// tail shares with later rows.
func TestSnapshotStability(t *testing.T) {
	s := NewStore()
	td := s.Create(meta())
	td.MustInsert(sqltypes.NewInt(1), sqltypes.NewString("x"))
	chunks, cn := td.SnapshotChunks()
	td.MustInsert(sqltypes.NewInt(2), sqltypes.Null)
	if cn != 1 || chunks[0].Len() != 1 {
		t.Fatalf("snapshot moved: n=%d chunk n=%d", cn, chunks[0].Len())
	}
	if chunks[0].Col(1).IsNull(0) {
		t.Fatal("null bit from a later append leaked into the frozen chunk")
	}
	c2, n2 := td.SnapshotChunks()
	if rows := td.Snapshot(); len(rows) != 2 || n2 != 2 || c2[0].Len() != 2 {
		t.Fatalf("fresh snapshots stale: rows=%d n=%d", len(rows), n2)
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
					for i := 0; i < c.Len(); i++ {
						if !c.Col(0).IsNull(i) {
							sum += int(c.Col(0).Value(i).Int())
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
		t.Errorf("Insert: %v allocs per row, want <= 4", got)
	}
	for _, name := range []string{"trans", "TrAns"} {
		if got := testing.AllocsPerRun(500, func() { s.Table(name) }); got != 0 {
			t.Errorf("Table(%q): %v allocs, want 0", name, got)
		}
	}
}
