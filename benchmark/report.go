package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json. It is the one list of metric names, units and
// bounds: a run emits exactly the metrics it declares and fails if it cannot,
// and -compare takes its bounds from it.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent (the
// benchmark is run from the repository root or from benchmark/) and returns
// it with the repository root.
func loadSpec() (*benchSpec, string, error) {
	for _, root := range []string{".", ".."} {
		blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var spec benchSpec
		if err := json.Unmarshal(blob, &spec); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &spec, root, nil
	}
	return nil, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// metric is one reported number: the median over the run's trials, with the
// trials' scatter and the number of samples behind it.
type metric struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Spread float64   `json:"spread"` // (max − min) / median over trials
	N      int       `json:"n"`      // samples behind the value
	Trials []float64 `json:"trials,omitempty"`
}

// report is what one run writes to benchmark/out and what -compare reads.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke"`
	Seconds   float64           `json:"seconds"`
	Host      hostInfo          `json:"host"`
	TableHash string            `json:"table_hash"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Statements is each statement's latency in ms over the run.
	Statements map[string]stmtLatency `json:"statements_ms"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

// quietLatencies is each statement's fastest execution in the given trials,
// in ms, skipping statements that never succeeded.
func quietLatencies(trials ...trialStats) []float64 {
	var out []float64
	for i := range trials[0].reads {
		var all []float64
		for _, ts := range trials {
			all = append(all, ts.reads[i]...)
		}
		if len(all) > 0 {
			out = append(out, fastest(all))
		}
	}
	return out
}

// trialMetrics is everything one trial's raw measurements give, by metric
// name. read_p50_ms, read_p95_ms, ops_per_s and the client.* latencies are
// what the clients experienced: percentiles over every sample of the trial,
// statements completed per second of the trial's wall clock. The read_quiet_*
// pair is the same percentiles over the statements of the mix, each counted at
// its fastest execution: what the mix costs when the host leaves it alone.
func trialMetrics(ts trialStats) map[string]float64 {
	ops := ts.ops()
	c := func(name string) float64 { return float64(ts.counters[name]) }
	queries := c("core.plancache.hits") + c("core.plancache.misses")
	reads, writes, quiet := ts.reads.all(), ts.writes.all(), quietLatencies(ts)
	return map[string]float64{
		"read_p50_ms":          percentile(reads, 0.50),
		"read_p95_ms":          percentile(reads, 0.95),
		"ops_per_s":            ratio(ops, ts.wall.Seconds()),
		"alloc_kb_per_op":      ratio(float64(ts.allocBytes)/1024, ops),
		"client.read_p99_ms":   percentile(reads, 0.99),
		"read_quiet_p50_ms":    percentile(quiet, 0.50),
		"read_quiet_p95_ms":    percentile(quiet, 0.95),
		"client.write_p50_ms":  percentile(writes, 0.50),
		"client.write_p95_ms":  percentile(writes, 0.95),
		"client.write_p99_ms":  percentile(writes, 0.99),
		"go.cpu_ms_per_op":     ratio(ms(ts.cpu), ops),
		"go.gc_cycles_per_kop": ratio(float64(ts.gcCycles)*1000, ops),
		"go.gc_pause_ms":       ms(ts.gcPause),
		"go.heap_inuse_mb":     float64(ts.heapInuse) / (1 << 20),
		"host.canary_ms":       (ts.canaryMS[0] + ts.canaryMS[1]) / 2,
		"host.canary_mem_ms":   math.Min(ts.memCanaryMS[0], ts.memCanaryMS[1]),

		"server.overloaded":             c("server.overloaded"),
		"core.plancache_hit_share":      ratio(c("core.plancache.hits"), queries),
		"catalog.pruned_share":          ratio(c("core.prune.pruned"), c("core.prune.pruned")+c("core.prune.admitted")),
		"core.candidates_per_query":     ratio(c("core.match.candidates"), queries),
		"core.match_accept_share":       ratio(c("core.match.accepts"), c("core.match.accepts")+c("core.match.rejects")),
		"core.degradations":             c("core.degradations"),
		"exec.rows_scanned_per_op":      ratio(c("exec.rows.scanned"), ops),
		"exec.rows_scanned_per_row_out": ratio(c("exec.rows.scanned"), c("exec.rows.emitted")),
		"exec.vector_declined":          c("exec.vector.declined"),
		"exec.vector_lifted":            c("exec.vector.lifted"),
	}
}

// overTrials turns the trials of a run into reported metrics: each is the
// median over trials, with the per-trial values, their spread and the number
// of statements behind them. The read_quiet_* pair is the one exception.
func overTrials(trials []trialStats) map[string]metric {
	values := map[string][]float64{}
	ops := 0
	for _, ts := range trials {
		for name, v := range trialMetrics(ts) {
			values[name] = append(values[name], v)
		}
		ops += int(ts.ops())
	}
	out := map[string]metric{}
	for name, vs := range values {
		out[name] = metric{Value: median(vs), Spread: spread(vs), N: ops, Trials: vs}
	}
	// A statement's quiet latency is looked for in the whole run, not trial
	// by trial: the more executions, the likelier one met a quiet host.
	quiet := quietLatencies(trials...)
	for name, q := range map[string]float64{"read_quiet_p50_ms": 0.50, "read_quiet_p95_ms": 0.95} {
		m := out[name]
		m.Value = percentile(quiet, q)
		out[name] = m
	}
	return out
}

// single is a metric with one measurement behind it.
func single(v float64) metric { return metric{Value: v, N: 1} }

// spanMetrics adds what only a traced trial can give: per-statement medians
// of the layer spans, in µs, for every declared metric named after a span
// ("wire.encode_us" is span "wire.encode"), and the derived ones.
func spanMetrics(out map[string]metric, spec *benchSpec, stmts []stmtSpans) {
	byName := map[string][]float64{}
	add := func(name string, v float64) { byName[name] = append(byName[name], v) }
	for _, s := range stmts {
		for name, d := range s.dur {
			add(name+"_us", d)
		}
		client, ok := s.dur["client"]
		if !ok {
			continue
		}
		add("astdb.self_us", s.self("astdb.query"))
		layers := s.dur["server.ping_rtt"] + s.dur["astdb.query"] + s.dur["wire.encode"] +
			s.dur["wire.decode"] + s.dur["driver.scan"]
		add("driver.residual_us", client-layers)
		add("trace.layer_sum_share", ratio(layers, client))
	}
	// A span the workload never records (maintain.* on a read workload)
	// reports 0 with n=0.
	for _, decl := range spec.PerLayer {
		if strings.HasSuffix(decl.Name, "_us") || decl.Name == "trace.layer_sum_share" {
			vs := byName[decl.Name]
			out[decl.Name] = metric{Value: median(vs), N: len(vs)}
		}
	}
}

// finish checks that every declared metric of the run's kind was computed,
// stamps the units, prints all metrics, writes the report file, and prints
// the result line the driver reads.
func (r *report) finish(spec *benchSpec, outDir string) error {
	declared := spec.EndToEnd
	if r.Trace {
		declared = spec.PerLayer
	}
	units := map[string]string{}
	for _, decl := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		units[decl.Name] = decl.Unit
	}
	for name, m := range r.Metrics {
		m.Unit = units[name]
		r.Metrics[name] = m
	}
	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]lineMetric{}}
	for _, decl := range declared {
		m, ok := r.Metrics[decl.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", decl.Name)
		}
		line.Metrics[decl.Name] = lineMetric{m.Value, decl.Unit}
	}

	h := r.Host
	fmt.Printf("workload %s seed %d trace %v seconds %g\n", r.Workload, r.Seed, r.Trace, r.Seconds)
	fmt.Printf("host nproc=%d gomaxprocs=%d %s cpu=%q load=%q\n", h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.LoadAvg)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Printf("%-32s %14.4f %-6s spread=%.3f n=%d\n", name, m.Value, m.Unit, m.Spread, m.N)
	}
	for _, f := range r.Failures {
		fmt.Printf("FAILED %s\n", f)
	}

	if err := r.write(outDir); err != nil {
		return err
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// write stores the report in dir under a name made of its workload and kind.
func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.fileName()), append(blob, '\n'), 0o644)
}

func (r *report) fileName() string {
	if r.Trace {
		return "report-" + r.Workload + "-trace.json"
	}
	return "report-" + r.Workload + ".json"
}
