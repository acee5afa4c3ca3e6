package rcu

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestZeroValues(t *testing.T) {
	var c Cell[[]int]
	if got := c.Load(); got != nil {
		t.Fatalf("zero Cell holds %v, want nil", got)
	}
	var m Map[string, int]
	if _, ok := m.Get("x"); ok || m.Len() != 0 {
		t.Fatal("zero Map is not empty")
	}
	m.Range(func(string, int) bool {
		t.Fatal("zero Map ranged over an entry")
		return false
	})
}

// TestReadersSeeWholeGenerations spins readers on Load, Get and Range while a
// writer publishes generations in which every value equals the generation
// number: a reader must never see two numbers in one generation, nor a
// generation older than one it already saw. Run under -race this is also the
// proof that readers need no lock.
func TestReadersSeeWholeGenerations(t *testing.T) {
	const keys, gens = 16, 2000
	var cell Cell[[keys]int]
	var m Map[int, int]
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastCell, lastGet, lastRange := 0, 0, 0
			for !stop.Load() {
				arr := cell.Load()
				for _, v := range arr {
					if v != arr[0] {
						t.Errorf("Load: torn generation %v", arr)
						return
					}
				}
				if arr[0] < lastCell {
					t.Errorf("Load: generation went back from %d to %d", lastCell, arr[0])
					return
				}
				lastCell = arr[0]

				if v, ok := m.Get(3); ok {
					if v < lastGet {
						t.Errorf("Get: generation went back from %d to %d", lastGet, v)
						return
					}
					lastGet = v
				}

				gen, n := -1, 0
				m.Range(func(_, v int) bool {
					if gen >= 0 && v != gen {
						t.Errorf("Range: saw generations %d and %d in one pass", gen, v)
					}
					gen = v
					n++
					return true
				})
				if n != 0 && n != keys {
					t.Errorf("Range: %d entries, want 0 or %d", n, keys)
					return
				}
				if gen >= 0 && gen < lastRange {
					t.Errorf("Range: generation went back from %d to %d", lastRange, gen)
					return
				}
				if gen >= 0 {
					lastRange = gen
				}
			}
		}()
	}
	for g := 1; g <= gens; g++ {
		cell.Update(func([keys]int) [keys]int {
			var next [keys]int
			for i := range next {
				next[i] = g
			}
			return next
		})
		m.Update(func(draft map[int]int) {
			for k := 0; k < keys; k++ {
				draft[k] = g
			}
		})
	}
	stop.Store(true)
	wg.Wait()
	if got := cell.Load()[0]; got != gens {
		t.Fatalf("last generation %d, want %d", got, gens)
	}
	if m.Len() != keys {
		t.Fatalf("Len %d, want %d", m.Len(), keys)
	}
}

// TestUpdatesAreSerialized has several writers read-modify-write one cell and
// one map: no increment may be lost.
func TestUpdatesAreSerialized(t *testing.T) {
	const writers, each = 4, 500
	var cell Cell[int]
	var m Map[string, int]
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				cell.Update(func(n int) int { return n + 1 })
				m.Update(func(draft map[string]int) { draft["n"]++ })
			}
		}()
	}
	wg.Wait()
	if got := cell.Load(); got != writers*each {
		t.Fatalf("cell lost updates: %d, want %d", got, writers*each)
	}
	if got, _ := m.Get("n"); got != writers*each {
		t.Fatalf("map lost updates: %d, want %d", got, writers*each)
	}
}

// TestDraftIsInvisibleUntilUpdateReturns mutates the draft and, still inside
// the callback, reads the map the way any other goroutine would.
func TestDraftIsInvisibleUntilUpdateReturns(t *testing.T) {
	var m Map[string, int]
	m.Update(func(draft map[string]int) { draft["a"], draft["b"] = 1, 1 })
	m.Update(func(draft map[string]int) {
		draft["a"] = 2
		delete(draft, "b")
		draft["c"] = 2
		if v, _ := m.Get("a"); v != 1 {
			t.Errorf("overwrite visible before publication: a=%d", v)
		}
		if _, ok := m.Get("b"); !ok {
			t.Error("delete visible before publication")
		}
		if _, ok := m.Get("c"); ok || m.Len() != 2 {
			t.Error("insert visible before publication")
		}
	})
	a, _ := m.Get("a")
	_, hasB := m.Get("b")
	c, _ := m.Get("c")
	if a != 2 || hasB || c != 2 || m.Len() != 2 {
		t.Fatalf("after Update: a=%d hasB=%v c=%d len=%d", a, hasB, c, m.Len())
	}
}

// TestPanickingUpdateKeepsPreviousGeneration: a callback that panics
// publishes nothing — not even what it already did to its draft — and
// releases the mutex, so the next Update neither deadlocks nor starts from
// the abandoned state.
func TestPanickingUpdateKeepsPreviousGeneration(t *testing.T) {
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("callback panic did not reach the caller")
			}
		}()
		f()
	}
	var cell Cell[int]
	cell.Update(func(int) int { return 7 })
	mustPanic(func() { cell.Update(func(int) int { panic("boom") }) })
	if got := cell.Load(); got != 7 {
		t.Fatalf("cell holds %d after a panicking Update, want 7", got)
	}
	cell.Update(func(n int) int { return n + 1 })
	if got := cell.Load(); got != 8 {
		t.Fatalf("cell holds %d, want 8", got)
	}

	var m Map[string, int]
	m.Update(func(draft map[string]int) { draft["a"] = 1 })
	mustPanic(func() {
		m.Update(func(draft map[string]int) {
			draft["a"] = 99
			draft["b"] = 99
			panic("boom")
		})
	})
	if a, _ := m.Get("a"); a != 1 || m.Len() != 1 {
		t.Fatalf("map shows a=%d len=%d after a panicking Update, want a=1 len=1", a, m.Len())
	}
	m.Update(func(draft map[string]int) { draft["a"]++ })
	if a, _ := m.Get("a"); a != 2 {
		t.Fatalf("a=%d, want 2", a)
	}
}

// TestGuardedSerializesDo sends goroutines through Do on a zero Guarded: every
// increment of a plain int and every map write must land (and, under -race, no
// two callbacks may overlap), a callback that panics must leave the lock free
// and its writes in place, and Do must not allocate.
func TestGuardedSerializesDo(t *testing.T) {
	type state struct {
		n    int
		seen map[int]int
	}
	const workers, rounds = 8, 500
	var g Guarded[state]
	g.Do(func(s *state) { s.seen = map[int]int{} })
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				g.Do(func(s *state) {
					s.n++
					s.seen[w]++
				})
			}
		}(w)
	}
	wg.Wait()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("the callback's panic did not reach the caller")
			}
		}()
		g.Do(func(s *state) {
			s.n++
			panic("boom")
		})
	}()

	got, perWorker := 0, 0
	g.Do(func(s *state) { got, perWorker = s.n, s.seen[workers-1] }) // would deadlock on a held lock
	if got != workers*rounds+1 || perWorker != rounds {
		t.Fatalf("n = %d, last worker = %d; want %d and %d", got, perWorker, workers*rounds+1, rounds)
	}
	if allocs := testing.AllocsPerRun(1000, func() { g.Do(func(s *state) { got = s.n }) }); allocs != 0 {
		t.Fatalf("Do allocated %.1f per run, want 0", allocs)
	}
}
