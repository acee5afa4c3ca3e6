// Command benchrunner regenerates the paper's tables and figures: each
// experiment prints the rewrite it produced, verifies original ≡ rewritten on
// synthetic data, and reports latencies and speedups.
//
// Usage:
//
//	benchrunner [-exp all|E01,E05,A02] [-scale 50000] [-obs]
//
// With -obs, instead of printing experiment tables it runs the paper query
// suite through the astdb facade with observability enabled and prints the
// snapshot (spans, counters, histograms). Latency and allocation records that
// gate a change are benchmark/'s job (bash benchmark/run.sh), not this
// command's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
	scale := flag.Int("scale", 50000, "fact-table rows at full scale")
	list := flag.Bool("list", false, "list experiments and exit")
	obsFlag := flag.Bool("obs", false, "run the paper query suite with observability on and print the snapshot")
	flag.Parse()

	if *obsFlag {
		if err := runObs(os.Stdout, *scale); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		return
	}

	registry := bench.Registry()
	if *list {
		for _, e := range registry {
			fmt.Printf("%-4s %-50s [%s]\n", e.ID, e.Title, e.PaperRef)
		}
		return
	}

	want := map[string]bool{}
	all := *expFlag == "all"
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.ToUpper(strings.TrimSpace(id))] = true
	}

	failed := 0
	for _, e := range registry {
		if !all && !want[e.ID] {
			continue
		}
		fmt.Printf("=== %s: %s (%s) ===\n", e.ID, e.Title, e.PaperRef)
		start := time.Now()
		if err := e.Run(os.Stdout, *scale); err != nil {
			fmt.Printf("FAILED: %v\n", err)
			failed++
		}
		fmt.Printf("(%s)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		fmt.Printf("%d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
