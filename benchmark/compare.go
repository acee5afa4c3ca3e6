package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// loadReports reads one report file, or every report-*.json of a directory,
// keyed by file name (which encodes workload and traced/untraced).
func loadReports(path string) (map[string]*report, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "report-*.json")); err != nil {
			return nil, err
		}
	}
	out := map[string]*report{}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(blob, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out[r.fileName()] = &r
	}
	return out, nil
}

// compareReports prints one verdict per (metric, workload) present in both
// sets and returns an error when a gated metric regressed.
//
// With d the relative change towards worse and noise the larger of the two
// recorded spreads: "worse" is d > bound and d > noise; "better" is d < −noise;
// "unresolved" is a metric whose noise exceeds its bound and whose change is
// inside the noise, so a regression of the size the bound forbids could hide;
// everything else is "same". Only the end-to-end metrics have a bound, so only
// they, and a higher failed share, can fail the comparison; a per-layer metric
// is "better" or "worse" when it moved by more than its recorded noise, and
// "-" when it is one measurement with no noise recorded.
func compareReports(spec *benchSpec, before, after string) error {
	a, err := loadReports(before)
	if err != nil {
		return err
	}
	b, err := loadReports(after)
	if err != nil {
		return err
	}
	specs := map[string]metricSpec{}
	for _, decl := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		specs[decl.Name] = decl
	}

	var keys []string
	for k := range a {
		if b[k] != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return fmt.Errorf("no report of the same workload and kind in both %s and %s", before, after)
	}
	regressions := 0
	fmt.Printf("%-24s %-30s %12s %12s %8s %6s %6s  %s\n", "workload", "metric", "before", "after", "change", "bound", "noise", "verdict")
	for _, k := range keys {
		ra, rb := a[k], b[k]
		label := ra.Workload
		if ra.Trace {
			label += " (traced)"
		}
		if fa, fb := ratio(float64(ra.Failed), float64(ra.Attempted)), ratio(float64(rb.Failed), float64(rb.Attempted)); fb > fa {
			fmt.Printf("%-24s %-30s %12.6f %12.6f %8s %6s %6s  worse\n", label, "failed_share", fa, fb, "", "0", "")
			regressions++
		}
		var names []string
		for name := range ra.Metrics {
			if _, ok := rb.Metrics[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			ma, mb, decl := ra.Metrics[name], rb.Metrics[name], specs[name]
			if ra.Trace {
				// A traced run's end-to-end figures are one short
				// reference trial's; only an untraced run's gate.
				decl.Bound = 0
			}
			if ma.Value == 0 || decl.Better == "" {
				continue
			}
			d := (mb.Value - ma.Value) / math.Abs(ma.Value)
			if decl.Better == "higher" {
				d = -d
			}
			noise := math.Max(ma.Spread, mb.Spread)
			verdict := "same"
			switch {
			case decl.Bound == 0 && noise == 0:
				verdict = "-" // one measurement and no bound: nothing to judge it by
			case d > decl.Bound && d > noise:
				verdict = "worse"
				if decl.Bound > 0 {
					regressions++
				}
			case d < -noise && d < 0:
				verdict = "better"
			case decl.Bound > 0 && noise > decl.Bound:
				verdict = "unresolved"
			}
			bound := "-"
			if decl.Bound > 0 {
				bound = fmt.Sprintf("%.2f", decl.Bound)
			}
			fmt.Printf("%-24s %-30s %12.4f %12.4f %+7.1f%% %6s %6.2f  %s\n",
				label, name, ma.Value, mb.Value, 100*d, bound, noise, verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regression(s)", regressions)
	}
	return nil
}
