package storage

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/sqltypes"
)

// boundCatalog is a catalog indexing the signature of summary table "a1" over
// a one-table schema, its freshness published through s.
func boundCatalog(t *testing.T, s *Store) (*catalog.Catalog, *catalog.Signature) {
	t.Helper()
	c := catalog.New()
	c.MustAddTable(&catalog.Table{Name: "t", Columns: meta().Columns, PrimaryKey: []string{"a"}})
	id, ok := c.TableID("t")
	if !ok {
		t.Fatal("table t has no ID")
	}
	sig := &catalog.Signature{}
	sig.Tables.Add(id)
	sig.Required.Add(id)
	c.SetASTSignature("a1", sig)
	c.SetFreshness(s)
	return c, sig
}

// TestStatusRCUReadersDuringTransitions is the RCU contract test for AST
// status in the store's generation: lock-free readers (Status, Statuses.Usable,
// ASTSignature on the signature index) run against writers driving the full
// transition cycle — stale, refresh failures up to quarantine, recovery — on
// the live store and through pinned stores committed whole. Each reader checks
// the invariants a published generation guarantees:
//
//   - the epoch never moves backwards between two successive reads
//     (generations are immutable and swapped whole, so time only flows
//     forward);
//   - a status with Failures at or past the threshold is also Quarantined —
//     failure count and quarantine verdict are written in one generation, so a
//     reader can never see the count without the verdict;
//   - Statuses.Usable and ASTSignature stay callable mid-transition (the -race run is
//     the memory-safety proof for their lock-free read paths).
func TestStatusRCUReadersDuringTransitions(t *testing.T) {
	s := NewStore()
	c, _ := boundCatalog(t, s)

	const readers = 6
	const writers = 2
	const rounds = 300
	errc := make(chan error, readers)
	stop := make(chan struct{})

	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			lastEpoch := int64(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := c.Status("a1")
				if st.Epoch < lastEpoch {
					errc <- fmt.Errorf("reader %d: epoch went backwards: %d after %d", r, st.Epoch, lastEpoch)
					return
				}
				lastEpoch = st.Epoch
				if st.Failures >= catalog.DefaultQuarantineThreshold && !st.Quarantined {
					errc <- fmt.Errorf("reader %d: %d failures past threshold without quarantine: %+v", r, st.Failures, st)
					return
				}
				c.Statuses().Usable("a1", false)
				c.ASTSignature("a1")
			}
		}(r)
	}

	var writerWG sync.WaitGroup
	var slot sync.Mutex // pinned stores commit as the one writer
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < rounds; i++ {
				switch i % 5 {
				case 0:
					s.Apply(c.Stale("a1"))
				case 1, 2, 3:
					s.Apply(c.Failed("a1"))
				default:
					if w == 0 {
						s.Apply(c.Fresh("a1"))
						continue
					}
					slot.Lock()
					p := s.Pin()
					p.Apply(c.Failed("a1"), c.Fresh("a1"))
					p.Commit()
					slot.Unlock()
				}
			}
		}(w)
	}

	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesce: one final recovery publishes a clean generation every reader
	// would agree on.
	s.Apply(c.Fresh("a1"))
	if st := c.Status("a1"); st.Stale || st.Quarantined || st.Failures != 0 {
		t.Fatalf("after recovery: %+v", st)
	}
}

// TestTransitionIsOnePublication: freshness lives in the store's one
// generation, so the moment Store.Apply publishes a Stale, Failed or Fresh
// transition, Status, Statuses.Usable and AdmitsAST all tell the new story —
// and a concurrent reader that sees the same Status before and after asking
// the other two never gets an answer that contradicts it (with freshness mirrored
// into the signature index, admission could lag a transition). Run under
// -race.
func TestTransitionIsOnePublication(t *testing.T) {
	s := NewStore()
	c, sig := boundCatalog(t, s)
	usable := func(st catalog.ASTStatus, allowStale bool) bool {
		return !st.Quarantined && (allowStale || !st.Stale)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, allowStale := range []bool{false, true} {
					before := c.Status("a1")
					u, a := c.Statuses().Usable("a1", allowStale), c.AdmitsAST("a1", sig, allowStale)
					if after := c.Status("a1"); after != before {
						continue // a transition landed in between: nothing to compare
					}
					if want := usable(before, allowStale); u != want || a != want {
						t.Errorf("status %+v allowStale=%v: Usable=%v AdmitsAST=%v, want both %v",
							before, allowStale, u, a, want)
						return
					}
				}
			}
		}()
	}

	agree := func(step string, want catalog.ASTStatus) {
		t.Helper()
		if got := c.Status("a1"); got != want {
			t.Fatalf("%s: status %+v, want %+v", step, got, want)
		}
		for _, allowStale := range []bool{false, true} {
			w := usable(want, allowStale)
			if u, a := c.Statuses().Usable("a1", allowStale), c.AdmitsAST("a1", sig, allowStale); u != w || a != w {
				t.Fatalf("%s allowStale=%v: Usable=%v AdmitsAST=%v, want both %v", step, allowStale, u, a, w)
			}
		}
	}
	for round := int64(0); round < 200; round++ {
		s.Apply(c.Stale("a1"))
		agree("Stale", catalog.ASTStatus{Epoch: round, Stale: true})
		for f := 1; f <= catalog.DefaultQuarantineThreshold; f++ {
			s.Apply(c.Failed("a1"))
			agree("Failed", catalog.ASTStatus{Epoch: round, Stale: true, Failures: f,
				Quarantined: f == catalog.DefaultQuarantineThreshold})
		}
		s.Apply(c.Fresh("a1"))
		agree("Fresh", catalog.ASTStatus{Epoch: round + 1})
	}
	close(stop)
	wg.Wait()
}

// TestPinnedWritesPublishOnce: writes staged on a pinned store — a table
// rewritten, a table put, a table dropped, a transition — are read back by
// that store and by nobody else until Commit publishes them in one swap, and
// a store pinned before the commit keeps reading the generation it pinned.
func TestPinnedWritesPublishOnce(t *testing.T) {
	s := NewStore()
	c, _ := boundCatalog(t, s)
	s.Create(meta()).MustInsert(sqltypes.NewInt(1), sqltypes.NewString("x"))
	other := meta()
	other.Name = "gone"
	s.Create(other)
	before := s.Pin()

	p := s.Pin()
	if err := p.Rewrite("t", Changes{Add: Chunked(2, [][]sqltypes.Value{row(2)})}); err != nil {
		t.Fatal(err)
	}
	summary := meta()
	summary.Name = "a1"
	p.PutRows(summary, [][]sqltypes.Value{row(3), row(4)})
	p.Drop("gone")
	p.Apply(c.Stale("a1"))
	if p.TableRows("t") != 2 || p.TableRows("a1") != 2 {
		t.Fatalf("pinned store does not read its own writes: t=%d a1=%d", p.TableRows("t"), p.TableRows("a1"))
	}
	if _, ok := p.Table("gone"); ok {
		t.Fatal("pinned store still reads the table it dropped")
	}
	if s.TableRows("t") != 1 || s.TableRows("a1") != 0 || c.Status("a1").Stale {
		t.Fatal("a staged write reached the live store before Commit")
	}
	if _, ok := s.Table("gone"); !ok {
		t.Fatal("a staged drop reached the live store before Commit")
	}

	// Readers see either every staged write or none of them.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := s.Pin()
				_, gone := g.Table("gone")
				old := g.TableRows("t") == 1 && g.TableRows("a1") == 0 && gone && !g.Statuses().Status("a1").Stale
				committed := g.TableRows("t") == 2 && g.TableRows("a1") == 2 && !gone && g.Statuses().Status("a1").Stale
				if !old && !committed {
					t.Error("a reader saw part of a commit")
					return
				}
			}
		}()
	}
	p.Commit()
	close(stop)
	wg.Wait()

	if s.TableRows("t") != 2 || s.TableRows("a1") != 2 || !c.Status("a1").Stale {
		t.Fatal("Commit did not publish the staged writes")
	}
	if _, ok := s.Table("gone"); ok {
		t.Fatal("Commit did not publish the staged drop")
	}
	if before.TableRows("t") != 1 || before.Statuses().Status("a1").Stale {
		t.Fatal("a store pinned before the commit moved")
	}
	s.MustTable("t").MustInsert(row(5)...)
	if s.TableRows("t") != 3 {
		t.Fatal("a table rewritten through a pinned store no longer grows in place")
	}
}

// TestCommitKeepsConcurrentTransitions: Commit applies a statement's
// transitions to the statuses current when it publishes, so a mark published
// while the statement was built survives unless the statement itself changes
// that table's status.
func TestCommitKeepsConcurrentTransitions(t *testing.T) {
	s := NewStore()
	c, _ := boundCatalog(t, s)
	p := s.Pin()
	p.Apply(c.Fresh("refreshed"))
	s.Apply(c.Stale("refreshed")) // both land while the statement is in flight
	s.Apply(c.Stale("untouched"))
	p.Commit()
	if st := c.Status("refreshed"); st.Stale || st.Epoch != 1 {
		t.Fatalf("the statement's own refresh lost to an earlier mark: %+v", st)
	}
	if st := c.Status("untouched"); !st.Stale {
		t.Fatalf("a concurrent stale mark was lost by the commit: %+v", st)
	}
}
