package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Config is the budget and the path of one engine run: two resource bounds,
// the chunk pipeline's worker cap, and the switch that runs the reference
// interpreter instead of the pipeline. The zero value is unlimited, on the
// pipeline, with GOMAXPROCS workers; Run uses it.
type Config struct {
	// MaxRows caps the rows the run may materialize, summed over every
	// operator (scans, join outputs, group outputs). It bounds memory and
	// work for runaway plans (e.g. an accidental cross join), not just the
	// final result size. The pipeline's workers charge one shared atomic
	// counter, so the cap holds run-wide (workers batch their charges, so a
	// run may overshoot by at most a few batches before tripping).
	MaxRows int
	// Timeout is the wall-clock budget for the run; it is applied on top of
	// whatever deadline the caller's context already carries.
	Timeout time.Duration
	// Parallelism caps the workers the chunk pipeline spreads a box's chunks
	// over (vector.go, vecgroupby.go). 0 means GOMAXPROCS; 1 keeps it on the
	// calling goroutine. The reference path is serial and ignores it.
	Parallelism int
	// Interpret runs every box on the reference path: serial, a row at a
	// time, every expression walked by the tree interpreter (expr.go). It is
	// the oracle the pipeline's answers are checked against, not a serving
	// mode; results are identical either way.
	Interpret bool
}

// ErrBudgetExceeded is returned (wrapped) when a run materializes more than
// Config.MaxRows rows.
var ErrBudgetExceeded = errors.New("exec: row budget exceeded")

// ErrCanceled is returned (wrapped) when the run's context is canceled or
// its deadline — including Config.Timeout — expires.
var ErrCanceled = errors.New("exec: canceled")

// pollEvery gates context polling in hot loops: a charger checks ctx.Done()
// at least once per this many checkpoint calls (plus once per box and once
// per worker's share of the chunks).
const pollEvery = 256

// chargeBatch is how many rows a charger accumulates locally before pushing
// them to the shared atomic counter. It bounds both atomic contention across
// workers and how far a run can overshoot MaxRows before tripping.
const chargeBatch = 64

// runBudget is the shared, concurrency-safe resource budget of one run: the
// main goroutine and every pipeline worker charge the same atomic counter, so
// Config.MaxRows bounds the run as a whole, not per goroutine.
type runBudget struct {
	ctx     context.Context
	maxRows int64 // 0 = unlimited
	used    atomic.Int64
}

// charge adds n rows to the shared counter, returning a wrapped
// ErrBudgetExceeded past the cap, and polls the context.
func (b *runBudget) charge(n int64) error {
	if n > 0 {
		used := b.used.Add(n)
		if b.maxRows > 0 && used > b.maxRows {
			return fmt.Errorf("%w: materialized %d rows, limit %d", ErrBudgetExceeded, used, b.maxRows)
		}
	}
	return b.poll()
}

// poll reports a typed cancellation error when the run's context is done.
func (b *runBudget) poll() error {
	if b.ctx == nil {
		return nil
	}
	select {
	case <-b.ctx.Done():
		return fmt.Errorf("%w: %v", ErrCanceled, context.Cause(b.ctx))
	default:
		return nil
	}
}

// charger is one goroutine's stake in the shared budget. It accumulates row
// charges locally and flushes them to the atomic counter in batches; each
// flush also polls the context. Every loop that produces or consumes rows
// calls checkpoint on its goroutine's charger.
type charger struct {
	b     *runBudget
	local int64
	calls int64
}

func (c *charger) checkpoint(n int) error {
	c.local += int64(n)
	c.calls++
	if c.local >= chargeBatch || c.calls%pollEvery == 0 {
		return c.flush()
	}
	return nil
}

// flush pushes the locally accumulated charge to the shared budget and polls
// the context. Callers flush at operator boundaries and when a worker
// finishes its partition so accounting never lags a completed operator.
func (c *charger) flush() error {
	n := c.local
	c.local = 0
	return c.b.charge(n)
}
