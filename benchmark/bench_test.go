package main

import (
	"context"
	"math"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at -smoke size, untraced and traced, and
// checks the contract a later change relies on: each run emits every metric
// BENCHMARK.json declares for its kind, finite and under a well-formed name,
// and no statement fails or disagrees with the oracle.
func TestSmoke(t *testing.T) {
	spec, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGenerator(); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	out := t.TempDir()
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			opt := options{workload: w.Name, seed: defaultSeed, seconds: 1, trace: trace, smoke: true, outDir: out}
			r, err := measure(context.Background(), opt, spec)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.Name, trace, r.Failed, r.Attempted, r.Failures)
			}
			if err := r.finish(spec, out); err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
			}
			declared := spec.EndToEnd
			if trace {
				declared = spec.PerLayer
			}
			for _, decl := range declared {
				m, ok := r.Metrics[decl.Name]
				switch {
				case !name.MatchString(decl.Name):
					t.Errorf("metric name %q is malformed", decl.Name)
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, decl.Name)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, decl.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, decl.Name, m.Value)
				}
			}
			if trace && w.Name == "maintain-mixed" {
				// Every route of a traced writer cycle ran: the wire, the
				// engine's ExecStatement, the benchmark's own Maintainer.
				for _, name := range []string{"client.write_p50_ms", "astdb.exec_stmt_us", "storage.insert_us",
					"maintain.apply_insert_us", "maintain.apply_update_us", "maintain.apply_delete_us", "maintain.refresh_full_us"} {
					if m := r.Metrics[name]; m.N == 0 || m.Value <= 0 {
						t.Errorf("maintain-mixed traced: %s = %v from %d samples, want a measurement", name, m.Value, m.N)
					}
				}
			}
		}
	}

	// The reports just written compare clean against themselves, and a
	// latency doubled beyond its bound is a regression.
	if err := compareReports(spec, out, out); err != nil {
		t.Errorf("self-comparison: %v", err)
	}
	worse := t.TempDir()
	reports, err := loadReports(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Trace {
			m := r.Metrics["read_quiet_p50_ms"]
			m.Value, m.Spread = m.Value*2, 0
			r.Metrics["read_quiet_p50_ms"] = m
		}
		if err := r.write(worse); err != nil {
			t.Fatal(err)
		}
	}
	if err := compareReports(spec, out, worse); err == nil {
		t.Error("a doubled read_quiet_p50_ms was not reported as a regression")
	}
}
