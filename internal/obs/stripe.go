package obs

import (
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/rcu"
)

// The observability hot path (Add, Observe) used to funnel every increment
// from every session through one Observer mutex; under a concurrent serving
// workload the "zero-alloc" guarantee was not a zero-contention guarantee.
// Counters and histograms are now striped: each named instrument holds
// numStripes independent cells, a writer picks a stripe keyed off its own
// goroutine (stack address — see stripeIdx), and only Snapshot/Counter reads
// merge the stripes. Writers on different goroutines therefore touch
// different cache lines instead of one shared word behind one shared lock.

// numStripes is the stripe count per instrument (power of two, so stripe
// selection is a mask). Eight stripes keep one counter at 8×64 B = half a KiB
// while giving typical GOMAXPROCS values contention-free increments.
const numStripes = 8

// stripeIdx picks this goroutine's stripe. Go does not expose a goroutine or
// P identity, so we hash the address of a stack variable: every goroutine has
// its own stack, addresses within it are far apart from other goroutines',
// and taking the address costs nothing (the variable does not escape — the
// pointer is converted to an integer immediately, asserted by the zero-alloc
// tests). The shift skips the low in-frame bits so recursion depth does not
// churn the index; any residual imbalance only shifts load between stripes,
// never correctness, because every stripe is merged on read.
func stripeIdx() uint64 {
	var b byte
	return (uint64(uintptr(unsafe.Pointer(&b))) >> 10) & (numStripes - 1)
}

// padCell is one stripe of a counter, padded to a cache line so neighboring
// stripes never false-share.
type padCell struct {
	v atomic.Int64
	_ [56]byte
}

// counterCell is one named counter: numStripes independently updated cells.
// Its registry is copy-on-write (an rcu.Map), so the cell pointer itself is
// stable for the Observer's lifetime.
type counterCell struct {
	stripes [numStripes]padCell
}

// add increments the calling goroutine's stripe.
func (c *counterCell) add(n int64) {
	c.stripes[stripeIdx()].v.Add(n)
}

// load sums the stripes. Each stripe read is atomic; a concurrent add lands
// either before or after its stripe is read, so the sum of a monotonic
// counter is monotonic across successive loads.
func (c *counterCell) load() int64 {
	var sum int64
	for i := range c.stripes {
		sum += c.stripes[i].v.Load()
	}
	return sum
}

// histStripe is one stripe of a histogram: a lock-guarded bucket set. The
// lock (rather than per-field atomics) is what makes a merged snapshot
// consistent per stripe — count, sum, max, and buckets are always observed
// together, so a merged histogram can never report count ≠ Σbuckets.
type histStripe struct {
	h rcu.Guarded[histogram]
	_ [32]byte // pad: keep neighboring stripes off one cache line
}

// histCell is one named histogram: numStripes independently locked stripes.
type histCell struct {
	stripes [numStripes]histStripe
}

// record adds one duration to the calling goroutine's stripe.
func (c *histCell) record(d time.Duration) {
	c.stripes[stripeIdx()].h.Do(func(h *histogram) { h.record(d) })
}

// merged returns the histogram summed over all stripes. Each stripe is read
// under its own lock, so every stripe contributes an internally consistent
// view; concurrent writers may land in a not-yet-read stripe (they appear in
// the next snapshot) but can never tear one.
func (c *histCell) merged() Histogram {
	var out Histogram
	for i := range c.stripes {
		var h Histogram
		c.stripes[i].h.Do(func(live *histogram) { h = live.snapshot() })
		for b := range out.Buckets {
			out.Buckets[b] += h.Buckets[b]
		}
		out.Count += h.Count
		out.Sum += h.Sum
		if h.Max > out.Max {
			out.Max = h.Max
		}
	}
	return out
}
