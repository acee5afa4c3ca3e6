// Command benchmark is the repository's one benchmark: it hosts the wire
// server in process on a loopback port, drives it through database/sql and the
// astdb driver as a closed loop, and reports what a caller sees — latency to
// the last row decoded, throughput, CPU and allocation per statement, memory,
// set-up time — on four workloads that each load a different layer. A traced
// run of the same workload replays every statement layer by layer and reports
// where its time went. README.md has the layer map and the rules.
//
//	bash benchmark/run.sh --workload dash-cached --seed 1 --seconds 15 --trace 0
//	go run -C benchmark . -workload base-scan -trace 1
//	go run -C benchmark . -compare out-before out-after
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// options is one invocation's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var opt options
	var doCompare bool
	flag.StringVar(&opt.workload, "workload", "", "dash-cached, adhoc-rewrite, base-scan or maintain-mixed")
	flag.Int64Var(&opt.seed, "seed", defaultSeed, "seed of the data, the statement order and the literals")
	flag.Float64Var(&opt.seconds, "seconds", 0, "measured time (default: run_seconds of BENCHMARK.json)")
	// -trace takes a value (0 or 1), as the driver passes it; a boolean flag
	// would read "--trace 0" as true followed by a stray argument.
	flag.Func("trace", "1 = replay every statement layer by layer and report the per-layer metrics", func(v string) error {
		on, err := strconv.ParseBool(v)
		opt.trace = on
		return err
	})
	flag.BoolVar(&opt.smoke, "smoke", false, "2000 rows, 1 trial of 1 cycle: exercises the whole path in about a second")
	flag.StringVar(&opt.outDir, "out", "", "directory for the report and trace files (default: benchmark/out)")
	flag.BoolVar(&doCompare, "compare", false, "compare two report files or directories: -compare before after")
	flag.Parse()

	spec, root, err := loadSpec()
	if err != nil {
		return err
	}
	if doCompare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files or directories")
		}
		return compareReports(spec, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if _, ok := workloadDefs[opt.workload]; !ok {
		return fmt.Errorf("unknown workload %q", opt.workload)
	}
	if opt.seconds <= 0 {
		opt.seconds = float64(spec.RunSeconds)
	}
	if opt.outDir == "" {
		opt.outDir = filepath.Join(root, "benchmark", "out")
	}
	if err := checkGenerator(); err != nil {
		return err
	}

	r, err := measure(context.Background(), opt, spec)
	if err != nil {
		return err
	}
	return r.finish(spec, opt.outDir)
}

// measure runs one workload once. An untraced run is size.trials trials; a
// traced run is one untraced reference trial (a third of the time) and one
// traced trial. Counts, shares and runtime figures of a traced run come from
// the reference trial, where the engine did nothing but serve the workload;
// span medians come from the traced trial; the ratio of the two trials'
// read_quiet_p50_ms is what tracing itself cost. An untraced run also times
// one spare set-up after every trial, for setup_s.
func measure(ctx context.Context, opt options, spec *benchSpec) (r *report, err error) {
	b, err := newBench(ctx, opt)
	defer func() {
		if cerr := b.close(); err == nil {
			err = cerr
		}
	}()
	if err != nil {
		return nil, err
	}
	hash, err := tablesHash(b.sys.db.Store())
	if err != nil {
		return nil, err
	}
	r = &report{
		Workload: opt.workload, Seed: opt.seed, Trace: opt.trace, Smoke: opt.smoke,
		Seconds: opt.seconds, Host: readHost(), TableHash: hash,
	}
	total := time.Duration(opt.seconds * float64(time.Second))

	var trials []trialStats
	if opt.trace {
		trials = []trialStats{b.trial(ctx, total/3)}
		b.tr, b.probes = newTracer(), newProbes(b.sys)
		traced := b.trial(ctx, total-total/3)
		r.Metrics = overTrials(trials)
		spanMetrics(r.Metrics, spec, b.tr.byStatement())
		b.tracedTallies(r.Metrics, traced, trials[0])
		if err := b.tr.write(filepath.Join(opt.outDir, "trace-"+opt.workload+".json")); err != nil {
			return nil, err
		}
		b.tr = nil
	} else {
		var setups []float64
		for i := 0; i < b.size.trials; i++ {
			trials = append(trials, b.trial(ctx, total/time.Duration(b.size.trials)))
			d, err := b.spareSetUp()
			if err != nil {
				return nil, err
			}
			setups = append(setups, d)
		}
		r.Metrics = overTrials(trials)
		r.Metrics["setup_s"] = metric{Value: median(setups), Spread: spread(setups), N: len(setups), Trials: setups}
	}
	r.Statements = b.statementLatencies(trials)
	if err := b.finalChecks(ctx); err != nil {
		return nil, err
	}
	r.Metrics["peak_rss_mb"] = single(peakRSSMB())
	r.Metrics["live_heap_mb"] = single(liveHeapMB())
	r.Metrics["client.failed_share"] = single(ratio(float64(b.failed), float64(b.attempted)))
	r.Attempted, r.Failed, r.Failures = b.attempted, b.failed, b.failures
	return r, nil
}
