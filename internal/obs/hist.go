package obs

import (
	"time"

	"repro/internal/rcu"
)

// histBounds are the upper bounds of the latency buckets (the last bucket is
// unbounded). Power-of-ten decades cover everything from sub-microsecond
// counter bumps to multi-second full recomputes.
var histBounds = [...]time.Duration{
	time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// NumHistBuckets is the bucket count of every latency histogram: one per
// bound plus the unbounded overflow bucket.
const NumHistBuckets = len(histBounds) + 1

// HistBucketLabel names bucket i for rendering ("<1ms", ">=1s").
func HistBucketLabel(i int) string {
	if i < len(histBounds) {
		return "<" + histBounds[i].String()
	}
	return ">=" + histBounds[len(histBounds)-1].String()
}

// histCell is one named histogram. The lock (rather than per-field atomics)
// is what makes a snapshot consistent: count, sum, max and buckets are read
// together, so a snapshot never reports count ≠ Σbuckets.
type histCell struct {
	h rcu.Guarded[histogram]
}

func (c *histCell) record(d time.Duration) {
	c.h.Do(func(h *histogram) { h.record(d) })
}

func (c *histCell) snapshot() (s Histogram) {
	c.h.Do(func(h *histogram) { s = h.snapshot() })
	return s
}

// histogram is the live latency histogram behind a histCell's lock.
type histogram struct {
	buckets [NumHistBuckets]int64
	count   int64
	sum     time.Duration
	max     time.Duration
}

func (h *histogram) record(d time.Duration) {
	i := 0
	for i < len(histBounds) && d >= histBounds[i] {
		i++
	}
	h.buckets[i]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

func (h *histogram) snapshot() Histogram {
	return Histogram{Buckets: h.buckets, Count: h.count, Sum: h.sum, Max: h.max}
}

// Histogram is an immutable latency histogram snapshot.
type Histogram struct {
	Buckets [NumHistBuckets]int64
	Count   int64
	Sum     time.Duration
	Max     time.Duration
}

// Mean returns the average recorded duration (0 when empty).
func (h Histogram) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.Count)
}
