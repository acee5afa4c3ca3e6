package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCountersConcurrentWriters proves the counter path loses nothing: many
// goroutines increment the same counter and different counters (registry
// growth mid-storm), and the totals equal exactly what was written.
func TestCountersConcurrentWriters(t *testing.T) {
	o := New()
	const workers = 8
	const addsPer = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := fmt.Sprintf("stress.private.%d", w)
			for i := 0; i < addsPer; i++ {
				o.Add("stress.shared", 1)
				o.Add(mine, 2)
			}
		}(w)
	}
	wg.Wait()

	if got := o.Counter("stress.shared"); got != workers*addsPer {
		t.Fatalf("shared counter %d, want %d", got, workers*addsPer)
	}
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("stress.private.%d", w)
		if got := o.Counter(name); got != 2*addsPer {
			t.Fatalf("%s = %d, want %d", name, got, 2*addsPer)
		}
	}
}

// TestHistogramSnapshotConsistency races histogram writers against a
// snapshot reader. A histogram is read under its lock, so every snapshot must
// be internally consistent — Count equals the bucket sum and only grows —
// even while recordings land concurrently; the final quiesced snapshot must
// account for every recording.
func TestHistogramSnapshotConsistency(t *testing.T) {
	o := New()
	const workers = 6
	const recsPer = 3000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 1)

	go func() {
		var lastCount int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			h := o.Snapshot().Histograms["stress.lat"]
			var bucketSum int64
			for _, b := range h.Buckets {
				bucketSum += b
			}
			if bucketSum != h.Count {
				select {
				case errc <- fmt.Errorf("torn snapshot: count %d != bucket sum %d", h.Count, bucketSum):
				default:
				}
				return
			}
			if h.Count < lastCount {
				select {
				case errc <- fmt.Errorf("count went backwards: %d after %d", h.Count, lastCount):
				default:
				}
				return
			}
			lastCount = h.Count
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < recsPer; i++ {
				o.Observe("stress.lat", time.Duration(1+i%1000)*time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	h := o.Snapshot().Histograms["stress.lat"]
	if h.Count != workers*recsPer {
		t.Fatalf("final count %d, want %d", h.Count, workers*recsPer)
	}
	var bucketSum int64
	for _, b := range h.Buckets {
		bucketSum += b
	}
	if bucketSum != h.Count {
		t.Fatalf("final snapshot torn: count %d != bucket sum %d", h.Count, bucketSum)
	}
}
