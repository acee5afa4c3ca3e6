package exec

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelMinRows is the input size below which parallel operators stay
// serial: goroutine spawn and partial-merge overhead dominates tiny inputs.
const parallelMinRows = 2048

// workersFor returns the worker count for an input of n rows, honoring the
// run's Parallelism limit and keeping partitions large enough to amortize
// fan-out overhead.
func (ev *evaluator) workersFor(n int) int {
	w := ev.par
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if n < parallelMinRows {
		return 1
	}
	if maxParts := n / (parallelMinRows / 2); maxParts < w {
		w = maxParts // at least 2: n is at least parallelMinRows
	}
	return w
}

// parallelChunks partitions [0, n) into `workers` contiguous, in-order chunks
// and runs fn for each on its own goroutine. Each worker gets a private
// charger against the shared run budget (flushed when the worker finishes its
// partition, which also polls the context), so Config.MaxRows and
// cancellation hold run-wide. A panic inside a worker is recovered and
// surfaced as a single error; when several workers fail, the lowest-numbered
// partition's error wins, deterministically.
//
// With workers <= 1 fn runs inline on the caller's goroutine — the serial
// path, reachable via Config{Parallelism: 1}.
func (ev *evaluator) parallelChunks(n, workers int, fn func(w, lo, hi int, chg *charger) error) error {
	if workers <= 1 {
		chg := &charger{b: ev.bud}
		if err := fn(0, 0, n, chg); err != nil {
			return err
		}
		return chg.flush()
	}
	ev.obsv.Add(CtrParallelOps, 1)
	ev.obsv.Add(CtrParallelWorkers, int64(workers))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("exec: parallel worker %d panicked: %v", w, r)
				}
			}()
			chg := &charger{b: ev.bud}
			if err := fn(w, lo, hi, chg); err != nil {
				errs[w] = err
				return
			}
			errs[w] = chg.flush()
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
