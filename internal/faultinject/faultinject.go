// Package faultinject provides deterministic fault injection for resilience
// testing. Production code calls Hit at named sites ("storage.scan:trans",
// "maintain.full:ast1", "core.match:ast1"); tests arm sites with faults —
// returned errors, panics, or delays — and assert that the pipeline degrades
// gracefully instead of failing the query.
//
// The registry is disabled by default: Hit is a single atomic load on the hot
// path, so leaving the calls compiled into release binaries costs nothing
// measurable. Probabilistic faults draw from an RNG seeded by Enable, making
// chaos runs reproducible.
//
// Site names are hierarchical: "storage.scan:trans" is matched first exactly,
// then by its "storage.scan" prefix, so a test can arm one table's scan or
// every scan with a single Set call.
package faultinject

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/rcu"
)

// Fault describes what happens when an armed site is hit. Delay applies
// first, then Panic (if set), then Err.
type Fault struct {
	Err   error         // error returned from Hit
	Panic any           // value to panic with; takes precedence over Err
	Delay time.Duration // sleep before panicking/returning
	Prob  float64       // firing probability per hit; <=0 or >=1 means always
	Times int           // fire at most this many times; 0 means unlimited
}

type armed struct {
	Fault
	hits  int
	fired int
}

// registry is the armed sites and the RNG their probabilities draw from; both
// are nil while the registry is disabled.
type registry struct {
	rng   *rand.Rand
	sites map[string]*armed
}

var (
	active atomic.Bool // fast-path gate; true only between Enable and Disable
	reg    rcu.Guarded[registry]
)

// Enable arms the registry. The seed drives probabilistic faults so chaos
// runs replay deterministically. Tests should defer Disable().
func Enable(seed int64) {
	reg.Do(func(r *registry) {
		*r = registry{rng: rand.New(rand.NewSource(seed)), sites: make(map[string]*armed)}
		active.Store(true)
	})
}

// Disable clears all armed sites and restores the zero-cost fast path.
func Disable() {
	reg.Do(func(r *registry) {
		active.Store(false)
		*r = registry{}
	})
}

// Set arms a site (or a site prefix, see package comment). It panics when the
// registry is not enabled — arming faults outside a chaos test is a bug.
func Set(site string, f Fault) {
	reg.Do(func(r *registry) {
		if r.sites == nil {
			panic("faultinject: Set called before Enable")
		}
		r.sites[site] = &armed{Fault: f}
	})
}

// Clear disarms one site.
func Clear(site string) {
	reg.Do(func(r *registry) { delete(r.sites, site) })
}

// Err is a convenience constructor for an always-firing error fault.
func Err(site string) Fault {
	return Fault{Err: fmt.Errorf("faultinject: injected error at %s", site)}
}

// Hit is called from production injection points. When the site (or its
// prefix up to the first ':') is armed it sleeps Fault.Delay, panics with
// Fault.Panic when set, and returns Fault.Err. Disabled registries return nil
// after one atomic load.
func Hit(site string) error {
	if !active.Load() {
		return nil
	}
	var f Fault // stays zero, and so does nothing below, unless the site fires
	reg.Do(func(r *registry) {
		a := r.sites[site]
		if a == nil {
			if i := strings.IndexByte(site, ':'); i > 0 {
				a = r.sites[site[:i]]
			}
		}
		if a == nil {
			return
		}
		a.hits++
		if a.Times > 0 && a.fired >= a.Times {
			return
		}
		if a.Prob > 0 && a.Prob < 1 && r.rng.Float64() >= a.Prob {
			return
		}
		a.fired++
		f = a.Fault
	})
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	if f.Panic != nil {
		panic(f.Panic)
	}
	return f.Err
}

// Fired reports how many times a site actually fired (not just matched).
func Fired(site string) (n int) {
	reg.Do(func(r *registry) {
		if a := r.sites[site]; a != nil {
			n = a.fired
		}
	})
	return n
}
