package storage

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sqltypes"
)

// TestViewPointerReadersDuringDMLStorm is the RCU contract test for the
// storage read path: Table/Scan start from one atomic load of the store's one
// generation, so readers must observe internally consistent views — row count
// equals the sum of chunk lengths, rows materialized later are no fewer, and
// an insert-only table's count is monotonic per reader — while one writer
// appends and another storms the same generations with Put (the swap a full
// refresh takes) and Drop of an unrelated table: a publication of one table
// must never lose or roll back another's.
func TestViewPointerReadersDuringDMLStorm(t *testing.T) {
	s := NewStore()
	td := s.Create(meta())

	const writes = 4000
	const readers = 4
	errc := make(chan error, readers)
	done := make(chan struct{})

	var writerWG sync.WaitGroup
	writerWG.Add(2)
	// Appender: grows the published view of "t" one row at a time.
	go func() {
		defer writerWG.Done()
		for i := 0; i < writes; i++ {
			td.MustInsert(sqltypes.Value(sqltypes.NewInt(int64(i))), sqltypes.Value(sqltypes.NewString("s")))
		}
	}()
	// Map stormer: swaps whole tables in and out of the store map, the path
	// DELETE/UPDATE maintenance takes. Readers of "t" must never notice.
	go func() {
		defer writerWG.Done()
		other := meta()
		other.Name = "other"
		for i := 0; i < 400; i++ {
			rows := [][]sqltypes.Value{{sqltypes.Value(sqltypes.NewInt(int64(i))), sqltypes.Value(sqltypes.NewString("x"))}}
			s.PutRows(other, rows)
			if i%7 == 0 {
				s.Drop("other")
			}
		}
	}()

	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			last := -1
			for {
				select {
				case <-done:
					return
				default:
				}
				chunks, n := s.MustTable("t").SnapshotChunks()
				sum := 0
				for _, c := range chunks {
					sum += c.Len()
				}
				if sum != n {
					errc <- fmt.Errorf("reader %d: view count %d != chunk sum %d", r, n, sum)
					return
				}
				if n < last {
					errc <- fmt.Errorf("reader %d: insert-only count went backwards: %d after %d", r, n, last)
					return
				}
				last = n
				rows, err := s.Scan("t")
				if err != nil {
					errc <- err
					return
				}
				if len(rows) < n {
					errc <- fmt.Errorf("reader %d: materialized rows %d < earlier count %d", r, len(rows), n)
					return
				}
			}
		}(r)
	}

	writerWG.Wait()
	close(done)
	readerWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if got := s.MustTable("t").Cardinality(); got != writes {
		t.Fatalf("final cardinality %d, want %d", got, writes)
	}
	rows := s.MustTable("t").Snapshot()
	if len(rows) != writes {
		t.Fatalf("final snapshot %d rows, want %d", len(rows), writes)
	}
}
