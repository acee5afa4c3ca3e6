// Package obs is the pipeline observability subsystem: hierarchical spans
// with wall-clock timings, monotonic counters, latency histograms, and a
// sequenced event stream. Every stage of the rewrite pipeline (parse → match
// → translate/derive → compensation → plan-cache lookup → exec → maintain)
// reports here when an Observer is attached.
//
// The package is designed around a nil-sink fast path: a nil *Observer is a
// valid, fully disabled observer. Every method checks the receiver first, the
// disabled Span and disabled context helpers are zero values, and none of the
// disabled paths allocate — production code holds a possibly-nil *Observer
// and calls it unconditionally, paying one predictable branch when
// observability is off (asserted by TestDisabledObserverZeroAlloc).
//
// Sequence numbers come from one package-global monotonic counter (NextSeq),
// not per-Observer state, so events recorded by different components — a
// rewriter degradation, a catalog staleness transition, a maintenance
// failure — interleave on a single total order even when they flow through
// different observers or none at all.
package obs

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/rcu"
)

// globalSeq is the process-wide monotonic event sequence.
var globalSeq atomic.Uint64

// NextSeq returns the next process-wide monotonic sequence number. Components
// that must order their records against the event stream without an observer
// attached (e.g. core.DegradationEvent) draw from the same counter.
func NextSeq() uint64 { return globalSeq.Add(1) }

// maxEvents bounds the retained event stream; the newest events are kept
// (they are the ones worth diagnosing) and evictions are counted.
const maxEvents = 1024

// maxSpans bounds the retained span records; past the cap new spans are
// counted but not recorded.
const maxSpans = 4096

// Observer collects counters, latency histograms, spans and events. The zero
// value is not used directly — construct with New. A nil *Observer is the
// disabled observer: every method is a cheap no-op.
//
// All methods are safe for concurrent use, and the counter/histogram write
// path is contention-free: the name→cell registries are rcu maps (a writer
// copies one only the first time a name is seen), and each cell is striped
// per goroutine (see stripe.go), so two sessions bumping the same counter
// touch different cache lines. Reads (Counter, Snapshot) merge the stripes.
type Observer struct {
	counters rcu.Map[string, *counterCell]
	hists    rcu.Map[string, *histCell]

	log     rcu.Guarded[recordLog]
	spanLen atomic.Int64 // published len(log.spans): lock-free saturation check
	dropped atomic.Int64 // spans not recorded past maxSpans
	began   time.Time
}

// recordLog is the bounded event stream and span buffer.
type recordLog struct {
	events   []Event
	evictedE int64
	spans    []SpanRecord
}

// New returns an enabled, empty observer.
func New() *Observer {
	return &Observer{began: time.Now()}
}

// Enabled reports whether the observer records anything.
func (o *Observer) Enabled() bool { return o != nil }

// cellOf returns the named instrument of a registry, creating it on first
// use. The fast path is one lookup in the current generation; the first
// sighting of a name publishes a copy of the registry with the new cell
// (unless a concurrent first sighting already did).
func cellOf[V any](m *rcu.Map[string, *V], name string) *V {
	if c, ok := m.Get(name); ok {
		return c
	}
	var c *V
	m.Update(func(draft map[string]*V) {
		if c = draft[name]; c == nil {
			c = new(V)
			draft[name] = c
		}
	})
	return c
}

// Add increments a monotonic counter. Counter names are dot-separated and
// documented in DESIGN.md §9; call sites on hot paths must pass constant
// strings so the disabled path stays allocation-free.
func (o *Observer) Add(name string, n int64) {
	if o == nil {
		return
	}
	cellOf(&o.counters, name).add(n)
}

// Counter reads a counter's current value (0 when never incremented).
func (o *Observer) Counter(name string) int64 {
	if o == nil {
		return 0
	}
	c, ok := o.counters.Get(name)
	if !ok {
		return 0
	}
	return c.load()
}

// Now returns the current wall-clock time when the observer is enabled and
// the zero Time otherwise. It is the sanctioned clock for instrumented
// packages: internal/core, internal/exec, and internal/qgm are lint-enforced
// deterministic (no direct time.Now), so latency measurement goes through the
// observer, costing nothing when observability is off.
func (o *Observer) Now() time.Time {
	if o == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveSince records the time elapsed since began into the named latency
// histogram. It is a no-op when the observer is disabled or began is the zero
// Time (the disabled Now), so the Now/ObserveSince pair brackets a measured
// region without any Enabled check at the call site.
func (o *Observer) ObserveSince(name string, began time.Time) {
	if o == nil || began.IsZero() {
		return
	}
	o.Observe(name, time.Since(began))
}

// Observe records one duration into the named latency histogram. Only the
// calling goroutine's stripe is locked, so concurrent sessions recording into
// the same histogram do not serialize.
func (o *Observer) Observe(name string, d time.Duration) {
	if o == nil {
		return
	}
	cellOf(&o.hists, name).record(d)
}

// Event is one entry of the sequenced event stream: degradations, staleness
// transitions, fault injections, cache evictions, fallbacks.
type Event struct {
	// Seq is the process-wide monotonic sequence number (NextSeq); records
	// from different subsystems interleave on it.
	Seq    uint64
	Kind   string // dot-separated taxonomy, e.g. "core.degraded"
	Detail string
	At     time.Time
}

// Emit records an event, assigning it the next global sequence number, and
// returns that number (0 when disabled).
func (o *Observer) Emit(kind, detail string) uint64 {
	if o == nil {
		return 0
	}
	seq := NextSeq()
	o.EmitSeq(seq, kind, detail)
	return seq
}

// EmitSeq records an event under a sequence number the caller already drew
// from NextSeq — used when the same number must also tag a record kept
// outside the observer (e.g. core.DegradationEvent).
func (o *Observer) EmitSeq(seq uint64, kind, detail string) {
	if o == nil {
		return
	}
	ev := Event{Seq: seq, Kind: kind, Detail: detail, At: time.Now()}
	o.log.Do(func(l *recordLog) {
		if len(l.events) >= maxEvents {
			copy(l.events, l.events[1:])
			l.events[len(l.events)-1] = ev
			l.evictedE++
		} else {
			l.events = append(l.events, ev)
		}
	})
}

// Snapshot is a point-in-time copy of everything the observer holds, for
// programmatic scraping and the -obs CLI surface.
type Snapshot struct {
	Counters      map[string]int64
	Histograms    map[string]Histogram
	Events        []Event
	EvictedEvents int64
	Spans         []SpanRecord
	DroppedSpans  int64
}

// Snapshot copies the observer's current state. Counters and histograms are
// deep copies; mutating the snapshot never touches the live observer. Counter
// and histogram stripes are merged here: each histogram stripe is read under
// its own lock, so every stripe contributes an internally consistent view
// (count always equals the bucket sum) even with writers running.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Counters:   make(map[string]int64, o.counters.Len()),
		Histograms: make(map[string]Histogram, o.hists.Len()),
	}
	o.log.Do(func(l *recordLog) {
		s.Events = append([]Event(nil), l.events...)
		s.EvictedEvents = l.evictedE
		s.Spans = append([]SpanRecord(nil), l.spans...)
		s.DroppedSpans = o.dropped.Load()
	})
	o.counters.Range(func(name string, c *counterCell) bool {
		s.Counters[name] = c.load()
		return true
	})
	o.hists.Range(func(name string, h *histCell) bool {
		s.Histograms[name] = h.merged()
		return true
	})
	return s
}

// CounterNames returns the snapshot's counter names in sorted order, for
// deterministic rendering.
func (s Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the snapshot's histogram names in sorted order.
func (s Snapshot) HistogramNames() []string {
	names := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
