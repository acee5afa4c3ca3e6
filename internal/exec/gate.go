package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrOverloaded is returned (wrapped) by Gate.Enter when every execution slot
// is busy and the wait queue is full. It is the admission-control companion of
// ErrBudgetExceeded/ErrCanceled: a typed, retriable rejection the serving
// layer maps to a wire code instead of queueing unboundedly.
var ErrOverloaded = errors.New("exec: overloaded, admission queue full")

// Gate is the admission controller for a shared engine: at most maxConcurrent
// requests run at once, at most queueDepth more wait for a slot, and anything
// beyond that is rejected immediately with ErrOverloaded. A Gate bounds both
// the execution parallelism and the latency hidden in the queue — with the
// queue full, callers learn about overload now rather than after a timeout.
//
// The zero Gate (and a nil *Gate) admits everything; construct with NewGate
// to enforce limits. All methods are safe for concurrent use.
type Gate struct {
	slots chan struct{} // execution slots; nil = unlimited
	queue chan struct{} // wait-queue tokens; nil = no waiting allowed
	// waiting and running are point-in-time gauges for observability.
	waiting atomic.Int64
	running atomic.Int64
}

// NewGate builds a gate admitting maxConcurrent concurrent requests with a
// wait queue of queueDepth. maxConcurrent <= 0 means unlimited (queueDepth is
// then irrelevant); queueDepth <= 0 means a full gate rejects instantly.
func NewGate(maxConcurrent, queueDepth int) *Gate {
	g := &Gate{}
	if maxConcurrent > 0 {
		g.slots = make(chan struct{}, maxConcurrent)
		if queueDepth > 0 {
			g.queue = make(chan struct{}, queueDepth)
		}
	}
	return g
}

// Enter requests admission. It returns a release function that must be called
// exactly once when the admitted work finishes, or an error: a wrapped
// ErrOverloaded when the gate and its queue are full, a wrapped ErrCanceled
// when ctx is done before a slot frees up. On error the caller owns nothing.
func (g *Gate) Enter(ctx context.Context) (release func(), err error) {
	if g == nil || g.slots == nil {
		return func() {}, nil
	}
	// Fast path: a free slot, no queueing.
	select {
	case g.slots <- struct{}{}:
		return g.admitted(), nil
	default:
	}
	// Slow path: take a queue token (or reject), then wait for a slot.
	if g.queue == nil {
		return nil, fmt.Errorf("%w: %d running", ErrOverloaded, cap(g.slots))
	}
	select {
	case g.queue <- struct{}{}:
	default:
		return nil, fmt.Errorf("%w: %d running, %d queued", ErrOverloaded, cap(g.slots), cap(g.queue))
	}
	g.waiting.Add(1)
	defer func() {
		g.waiting.Add(-1)
		<-g.queue
	}()
	select {
	case g.slots <- struct{}{}:
		return g.admitted(), nil
	case <-ctx.Done():
		return nil, fmt.Errorf("%w: %v", ErrCanceled, context.Cause(ctx))
	}
}

// admitted returns the single-use release closure for one occupied slot.
func (g *Gate) admitted() func() {
	g.running.Add(1)
	var released atomic.Bool
	return func() {
		if released.CompareAndSwap(false, true) {
			g.running.Add(-1)
			<-g.slots
		}
	}
}

// Running reports how many admitted requests are currently executing.
func (g *Gate) Running() int64 {
	return g.running.Load()
}

// Waiting reports how many requests are queued for a slot.
func (g *Gate) Waiting() int64 {
	return g.waiting.Load()
}
