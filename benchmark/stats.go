package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of xs (0 for no samples). It
// sorts a copy.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value, the mean of the middle two for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is (max − min) / median, the run-to-run scatter recorded beside
// every metric; 0 when the median is 0 or there is one sample.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (hi - lo) / math.Abs(m)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// fastest is the smallest sample (0 for none). On a shared host interference
// only ever adds time, so the fastest of a statement's executions is what the
// statement costs when the host leaves it alone, and it repeats between runs
// several times better than a median does. It says nothing about what a caller
// experienced on the day, so it feeds the read_quiet_* metrics only.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo := xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
	}
	return lo
}

// slots holds latencies in milliseconds, one slice per statement slot of the
// cycle (a reader's slots are the statements of the mix; a writer's are
// INSERT, UPDATE, DELETE).
type slots [][]float64

// count is the number of samples in all slots.
func (s slots) count() int {
	n := 0
	for _, xs := range s {
		n += len(xs)
	}
	return n
}

// all returns every sample.
func (s slots) all() []float64 {
	var out []float64
	for _, xs := range s {
		out = append(out, xs...)
	}
	return out
}
