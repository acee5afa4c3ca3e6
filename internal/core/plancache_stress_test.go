package core_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/qgm"
)

// TestPlanCacheConcurrentHits hammers a cache from many goroutines over more
// distinct queries than it holds, forcing concurrent hits, misses, inserts,
// and evictions. Run under -race this is the memory-safety proof for the
// cache's one lock; the assertions prove the accounting survives the races:
// every lookup is classified exactly once (hits + misses == lookups) and the
// cache never exceeds its capacity.
func TestPlanCacheConcurrentHits(t *testing.T) {
	e := newEnv(t, 1000)
	o := obs.New()
	e.rw.SetObserver(o)
	ast := e.registerAST(t, "pc_stress", pcAggSQL)
	asts := []*core.CompiledAST{ast}
	const capacity = 64
	cache := core.NewPlanCache(capacity)

	// More distinct templates than capacity (the alias is template text; a
	// literal would not be), each parseable and rewriteable, so the storm
	// exercises eviction as well as hit promotion.
	queries := make([]string, 96)
	for i := range queries {
		queries[i] = fmt.Sprintf(
			"select faid, count(*) as cnt%d from trans where faid <= %d group by faid", i, i+1)
	}

	const workers = 8
	const opsPer = 120
	var lookups atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < opsPer; i++ {
				q := queries[(w*31+i)%len(queries)]
				cr, err := e.rw.RewriteSQLCached(ctx, cache, q, asts, e.store)
				if err != nil {
					errc <- err
					return
				}
				if cr.Plan == nil {
					errc <- fmt.Errorf("worker %d: nil plan for %q", w, q)
					return
				}
				lookups.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if n := cache.Len(); n > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", n, capacity)
	}
	hits, misses := o.Counter(core.CtrCacheHits), o.Counter(core.CtrCacheMisses)
	if hits+misses != lookups.Load() {
		t.Fatalf("hits %d + misses %d != lookups %d", hits, misses, lookups.Load())
	}
	if misses < int64(len(queries)) {
		t.Fatalf("misses %d < distinct queries %d", misses, len(queries))
	}
}

// TestPlanCacheConcurrentInvalidation races cache lookups against the status
// transitions that re-key entries (Stale / Fresh transitions change the usable
// set): readers must always get a runnable plan mid-flip, and once the writer
// quiesces with the AST fresh, the fresh-era entry — kept, or repopulated by
// the very next miss — answers with the rewrite intact.
func TestPlanCacheConcurrentInvalidation(t *testing.T) {
	e := newEnv(t, 1000)
	ast := e.registerAST(t, "pc_flip", pcAggSQL)
	asts := []*core.CompiledAST{ast}
	cache := core.NewPlanCache(core.DefaultPlanCacheSize)
	ctx := context.Background()
	sql := "select faid, count(*) as cnt from trans group by faid"

	const readers = 6
	const readsPer = 80
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	stop := make(chan struct{})

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readsPer; i++ {
				cr, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
				if err != nil {
					errc <- err
					return
				}
				if cr.Plan == nil {
					errc <- fmt.Errorf("reader %d: nil plan", r)
					return
				}
				// A hit that claims the AST must have come from an era whose
				// usable set held it; a base-plan answer is always legal.
				if cr.Hit && len(cr.ASTs) > 0 && !slices.Equal(cr.ASTs, []string{"pc_flip"}) {
					errc <- fmt.Errorf("reader %d: hit names unknown ASTs %q", r, cr.ASTs)
					return
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 60; i++ {
			if i%2 == 0 {
				e.store.Apply(e.cat.Stale("pc_flip"))
			} else {
				e.store.Apply(e.cat.Fresh("pc_flip"))
			}
		}
		e.store.Apply(e.cat.Fresh("pc_flip"))
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	<-stop

	// Quiesced fresh: the fresh-era key either already exists or repopulates
	// on this miss; the follow-up lookup must hit and carry the rewrite.
	if _, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store); err != nil {
		t.Fatal(err)
	}
	cr, err := e.rw.RewriteSQLCached(ctx, cache, sql, asts, e.store)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Hit || !slices.Equal(cr.ASTs, []string{"pc_flip"}) {
		t.Fatalf("after quiesce: want fresh-era hit on pc_flip, got %+v", cr)
	}
}

// TestPlanCacheConcurrentBinding: many sessions send one template with their
// own literals while a status storm flips one summary table and takes two
// others away for good. Under -race this is the proof that binding writes
// only into the copy a lookup hands out — the stored plan is shared by every
// session and never written. The assertions: each session gets its own
// literals' answer, and a table seen stale or quarantined before a lookup is
// never what that lookup's plan reads.
func TestPlanCacheConcurrentBinding(t *testing.T) {
	e := newEnv(t, 1500)
	// Smallest first, so each is chosen while it is usable.
	defs := []struct{ name, sql string }{
		{"cb_gone", "select faid, count(*) as cnt from trans group by faid"},
		{"cb_dead", "select faid, flid, count(*) as cnt from trans group by faid, flid"},
		{"cb_flip", "select faid, flid, year(date) as year, count(*) as cnt from trans group by faid, flid, year(date)"},
	}
	var asts []*core.CompiledAST
	for _, d := range defs {
		asts = append(asts, e.registerAST(t, d.name, d.sql))
	}
	cache := core.NewPlanCache(core.DefaultPlanCacheSize)
	ctx := context.Background()

	const sessions = 8
	const lookupsPer = 150
	text := func(bound int) string {
		return fmt.Sprintf("select faid, count(*) as cnt from trans where faid <= %d group by faid having count(*) > 0.5", bound)
	}
	want := make([]*exec.Result, sessions)
	for s := range want {
		g, err := qgm.BuildSQL(text(s+1), e.cat)
		if err != nil {
			t.Fatal(err)
		}
		want[s] = mustRun(t, e, g)
	}

	var wg sync.WaitGroup
	var served [3]atomic.Int64 // lookups whose plan read defs[i]
	var lookups atomic.Int64
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < lookupsPer; i++ {
				before := e.cat.Statuses()
				cr, err := e.rw.RewriteSQLCached(ctx, cache, text(s+1), asts, e.store)
				if err != nil {
					t.Errorf("session %d: %v", s, err)
					return
				}
				// cb_gone and cb_dead never come back, so unusable before the
				// lookup is unusable during it.
				for _, name := range cr.ASTs {
					if name != "cb_flip" && !before.Usable(name, false) {
						t.Errorf("session %d: hit=%t served %s, which was unusable before the lookup", s, cr.Hit, name)
						return
					}
				}
				got, err := e.engine.RunCtx(ctx, cr.Plan, exec.Config{})
				if err != nil {
					t.Errorf("session %d: %v", s, err)
					return
				}
				if diff := exec.EqualResults(want[s], got); diff != "" {
					t.Errorf("session %d (hit=%t, %q): not its own literals' answer: %s", s, cr.Hit, cr.ASTs, diff)
					return
				}
				for k, d := range defs {
					if slices.Equal(cr.ASTs, []string{d.name}) {
						served[k].Add(1)
					}
				}
				lookups.Add(1)
				runtime.Gosched() // let the storm loop in between lookups
			}
		}(s)
	}
	readers := make(chan struct{})
	go func() { wg.Wait(); close(readers) }()
	// The storm lasts as long as the sessions do: cb_flip flips throughout,
	// cb_gone goes stale after a third of the lookups, cb_dead is quarantined
	// after two thirds.
	const total = sessions * lookupsPer
	gone, dead := false, false
	for i := 0; ; i++ {
		select {
		case <-readers:
		default:
			switch n := lookups.Load(); {
			case !gone && n > total/3:
				e.store.Apply(e.cat.Stale("cb_gone"))
				gone = true
			case !dead && n > 2*total/3:
				for range catalog.DefaultQuarantineThreshold {
					e.store.Apply(e.cat.Failed("cb_dead"))
				}
				dead = true
			case i%2 == 0:
				e.store.Apply(e.cat.Stale("cb_flip"))
			default:
				e.store.Apply(e.cat.Fresh("cb_flip"))
			}
			runtime.Gosched()
			continue
		}
		break
	}
	if t.Failed() {
		return
	}
	// Sessions that outran the storm loop (it only yields, so on two cores it
	// can miss a threshold) still leave the storm's end state to check.
	if !gone {
		e.store.Apply(e.cat.Stale("cb_gone"))
	}
	if !dead {
		e.store.Apply(e.cat.Failed("cb_dead"))
	}

	// Quiesced: the two tables taken away stay away, the flipped one serves —
	// from its era's entry the second time at the latest.
	e.store.Apply(e.cat.Fresh("cb_flip"))
	for i := 0; i < 2; i++ {
		cr, err := e.rw.RewriteSQLCached(ctx, cache, text(3), asts, e.store)
		if err != nil || !slices.Equal(cr.ASTs, []string{"cb_flip"}) || (i == 1 && !cr.Hit) {
			t.Fatalf("after the storm, lookup %d: %+v, %v", i, cr, err)
		}
	}
	t.Logf("plans served: cb_gone %d, cb_dead %d, cb_flip %d of %d lookups",
		served[0].Load(), served[1].Load(), served[2].Load(), sessions*lookupsPer)
}
