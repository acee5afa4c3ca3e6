package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCountersAndHistograms(t *testing.T) {
	o := New()
	o.Add("a.b", 2)
	o.Add("a.b", 3)
	o.Add("a.c", 1)
	o.Observe("lat", 5*time.Microsecond)
	o.Observe("lat", 5*time.Millisecond)

	if got := o.Counter("a.b"); got != 5 {
		t.Fatalf("a.b = %d, want 5", got)
	}
	if got := o.Counter("missing"); got != 0 {
		t.Fatalf("missing = %d, want 0", got)
	}
	s := o.Snapshot()
	if got := s.CounterNames(); strings.Join(got, ",") != "a.b,a.c" {
		t.Fatalf("counter names = %v", got)
	}
	h := s.Histograms["lat"]
	if h.Count != 2 || h.Max != 5*time.Millisecond {
		t.Fatalf("histogram = %+v", h)
	}
	total := int64(0)
	for _, b := range h.Buckets {
		total += b
	}
	if total != 2 {
		t.Fatalf("bucket sum = %d, want 2", total)
	}
}

func TestSpanHierarchy(t *testing.T) {
	o := New()
	root := o.Start("query")
	child := root.Child("rewrite")
	grand := child.Child("match")
	grand.End()
	child.End()
	root.End()

	s := o.Snapshot()
	if len(s.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(s.Spans))
	}
	if s.Spans[0].Parent != -1 || s.Spans[1].Parent != 0 || s.Spans[2].Parent != 1 {
		t.Fatalf("span parents wrong: %+v", s.Spans)
	}
	for i, sp := range s.Spans {
		if !sp.Ended {
			t.Fatalf("span %d not ended", i)
		}
	}
	// Ending a span feeds its name's histogram.
	if s.Histograms["match"].Count != 1 {
		t.Fatalf("span end did not feed histogram: %+v", s.Histograms)
	}
}

func TestSpanContextPropagation(t *testing.T) {
	o := New()
	root := o.Start("outer")
	ctx := ContextWithSpan(context.Background(), root)
	inner := SpanFromContext(ctx).Child("inner")
	inner.End()
	root.End()
	s := o.Snapshot()
	if len(s.Spans) != 2 || s.Spans[1].Parent != 0 {
		t.Fatalf("context propagation broken: %+v", s.Spans)
	}
	// A context without a span yields the disabled span.
	if sp := SpanFromContext(context.Background()); sp.o != nil {
		t.Fatal("expected disabled span from empty context")
	}
}

func TestEventsSequencedAndBounded(t *testing.T) {
	o := New()
	first := o.Emit("k", "first")
	second := o.Emit("k", "second")
	if second <= first {
		t.Fatalf("sequence not monotonic: %d then %d", first, second)
	}
	for i := 0; i < maxEvents+10; i++ {
		o.Emit("fill", fmt.Sprintf("e%d", i))
	}
	s := o.Snapshot()
	if len(s.Events) != maxEvents {
		t.Fatalf("retained %d events, want %d", len(s.Events), maxEvents)
	}
	if s.EvictedEvents != 12 {
		t.Fatalf("evicted = %d, want 12", s.EvictedEvents)
	}
	// Newest events are the ones kept.
	if got := s.Events[len(s.Events)-1].Detail; got != fmt.Sprintf("e%d", maxEvents+9) {
		t.Fatalf("last retained event = %q", got)
	}
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].Seq <= s.Events[i-1].Seq {
			t.Fatalf("event stream out of order at %d", i)
		}
	}
}

// TestDisabledObserverZeroAlloc locks the nil-sink fast path: every
// instrumentation entry point, called on a disabled observer, allocates
// nothing. This is what lets the hot paths (cached rewrites, exec row loops)
// carry observer calls unconditionally.
func TestDisabledObserverZeroAlloc(t *testing.T) {
	var o *Observer
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		o.Add("exec.rows.scanned", 128)
		o.Observe("exec.run", time.Millisecond)
		o.EmitSeq(7, "core.degraded", "detail")
		sp := o.Start("query")
		c := sp.Child("rewrite")
		c.End()
		sp.End()
		ctx2 := ContextWithSpan(ctx, sp)
		_ = SpanFromContext(ctx2).Child("exec.run")
		_ = o.Counter("exec.rows.scanned")
		_ = o.Enabled()
		_ = o.Snapshot()
	})
	if allocs != 0 {
		t.Fatalf("disabled observer allocated %.1f per run, want 0", allocs)
	}
}

// TestKnownInstrumentZeroAlloc pins the enabled fast path: once a name has
// been seen, Add, Observe and Counter are a lookup in the current registry
// generation plus a striped write, and allocate nothing.
func TestKnownInstrumentZeroAlloc(t *testing.T) {
	o := New()
	o.Add("exec.rows.scanned", 1)
	o.Observe("exec.run", time.Millisecond)
	allocs := testing.AllocsPerRun(1000, func() {
		o.Add("exec.rows.scanned", 128)
		o.Observe("exec.run", time.Millisecond)
		_ = o.Counter("exec.rows.scanned")
	})
	if allocs != 0 {
		t.Fatalf("known instruments allocated %.1f per run, want 0", allocs)
	}
}

// TestHistCellRecordZeroAlloc pins the striped write itself, and the span
// pair every statement opens and closes: both reach their state through an
// rcu.Guarded, and a callback that escaped to the heap would show here first.
// (A recorded span costs its slot in the buffer, amortized.)
func TestHistCellRecordZeroAlloc(t *testing.T) {
	var c histCell
	if got := testing.AllocsPerRun(1000, func() { c.record(time.Millisecond) }); got != 0 {
		t.Fatalf("histCell.record allocated %.1f per run, want 0", got)
	}
	o := New()
	o.Start("query").End()
	if got := testing.AllocsPerRun(1000, func() { o.Start("query").End() }); got >= 1 {
		t.Fatalf("a recorded span allocated %.1f per run, want amortized growth only", got)
	}
}

func TestConcurrentUse(t *testing.T) {
	o := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				o.Add("c", 1)
				o.Observe("h", time.Microsecond)
				o.Emit("e", "x")
				sp := o.Start("s")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got := o.Counter("c"); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	s := o.Snapshot()
	if s.Histograms["h"].Count != 4000 {
		t.Fatalf("histogram count = %d", s.Histograms["h"].Count)
	}
}

func TestRenderDeterministicCounters(t *testing.T) {
	o := New()
	o.Add("z.last", 1)
	o.Add("a.first", 2)
	var sb strings.Builder
	o.Snapshot().Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "a.first") || strings.Index(out, "a.first") > strings.Index(out, "z.last") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
}

func TestHistogramQuantile(t *testing.T) {
	o := New()
	// 90 fast ops (~5µs), 10 slow ones (~50ms): p50 must land in the fast
	// decade, p99 in the slow one.
	for i := 0; i < 90; i++ {
		o.Observe("h", 5*time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		o.Observe("h", 50*time.Millisecond)
	}
	h := o.Snapshot().Histograms["h"]
	if h.Count != 100 {
		t.Fatalf("count = %d", h.Count)
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < time.Microsecond || p50 >= 10*time.Microsecond {
		t.Fatalf("p50 = %v, want inside [1µs, 10µs)", p50)
	}
	if p99 < 10*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v, want inside [10ms, 100ms]", p99)
	}
	if p99 < p50 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v", p50, p99)
	}
	if got := (Histogram{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v", got)
	}
	// All mass in the overflow bucket reports Max.
	o2 := New()
	o2.Observe("h", 3*time.Second)
	h2 := o2.Snapshot().Histograms["h"]
	if got := h2.Quantile(0.5); got != h2.Max {
		t.Fatalf("overflow quantile = %v, want Max %v", got, h2.Max)
	}
}
