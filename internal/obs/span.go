package obs

import (
	"context"
	"time"
)

// SpanRecord is one finished span: a named pipeline stage with wall-clock
// timing and a parent index forming the hierarchy.
type SpanRecord struct {
	Name   string
	Parent int // index into Snapshot.Spans; -1 for roots
	Start  time.Time
	Dur    time.Duration
	Ended  bool
}

// Span is a live pipeline stage. The zero Span is the disabled span: Child
// returns another disabled span and End is a no-op, so instrumented code
// never branches on whether observability is on. Spans are value types —
// starting one on the disabled path allocates nothing.
type Span struct {
	o   *Observer
	idx int // index into o.spans
}

// Enabled reports whether the span records anything (false for the disabled
// zero span).
func (s Span) Enabled() bool { return s.o != nil }

// Start begins a root span.
func (o *Observer) Start(name string) Span {
	if o == nil {
		return Span{}
	}
	return o.startSpan(name, -1)
}

func (o *Observer) startSpan(name string, parent int) Span {
	// Saturation fast path: once the span buffer is full — the steady state of
	// any long-lived serving process — count the drop with one atomic instead
	// of funneling every would-be span through the Observer's lock. spanLen only
	// grows, so a stale read can at worst take the slow path below.
	if o.spanLen.Load() >= maxSpans {
		o.dropped.Add(1)
		return Span{}
	}
	var span Span
	o.log.Do(func(l *recordLog) {
		if len(l.spans) >= maxSpans {
			o.dropped.Add(1)
			return
		}
		l.spans = append(l.spans, SpanRecord{Name: name, Parent: parent, Start: time.Now()})
		o.spanLen.Store(int64(len(l.spans)))
		span = Span{o: o, idx: len(l.spans) - 1}
	})
	return span
}

// Child begins a span nested under s.
func (s Span) Child(name string) Span {
	if s.o == nil {
		return Span{}
	}
	return s.o.startSpan(name, s.idx)
}

// End finishes the span, recording its duration and feeding the latency
// histogram of the span's name.
func (s Span) End() {
	if s.o == nil {
		return
	}
	var (
		first bool
		name  string
		dur   time.Duration
	)
	s.o.log.Do(func(l *recordLog) {
		rec := &l.spans[s.idx]
		first = !rec.Ended
		if first {
			rec.Dur = time.Since(rec.Start)
			rec.Ended = true
		}
		name, dur = rec.Name, rec.Dur
	})
	if first {
		s.o.Observe(name, dur)
	}
}

// spanKey is the context key for span propagation.
type spanKey struct{}

// ContextWithSpan returns a context carrying the span so deeper pipeline
// stages (matching, execution) can nest under it. A disabled span returns ctx
// unchanged — the disabled path allocates nothing.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	if s.o == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or the disabled span.
func SpanFromContext(ctx context.Context) Span {
	if s, ok := ctx.Value(spanKey{}).(Span); ok {
		return s
	}
	return Span{}
}
