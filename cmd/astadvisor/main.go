// Command astadvisor recommends a set of Automatic Summary Tables for the
// demo star schema: it measures every cuboid's cardinality over the chosen
// dimensions, runs HRU greedy lattice selection, and prints CREATE SUMMARY
// TABLE statements ready for the astrw shell.
//
// Usage:
//
//	astadvisor -scale 50000 -k 3 -dims flid,faid,fpgid,year
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/advisor"
	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/workload"
)

var knownDims = map[string]advisor.Dimension{
	"flid":  {Name: "flid", Expr: "flid"},
	"faid":  {Name: "faid", Expr: "faid"},
	"fpgid": {Name: "fpgid", Expr: "fpgid"},
	"qty":   {Name: "qty", Expr: "qty"},
	"year":  {Name: "year", Expr: "year(date)"},
	"month": {Name: "month", Expr: "month(date)"},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "astadvisor: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command: it parses args, measures the lattice and writes
// the picks to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("astadvisor", flag.ExitOnError)
	scale := fs.Int("scale", 20000, "fact-table rows to generate")
	k := fs.Int("k", 3, "number of summary tables to pick")
	dims := fs.String("dims", "flid,faid,year", "comma-separated dimensions: flid,faid,fpgid,qty,year,month")
	fs.Parse(args)

	cfg := advisor.Config{
		Fact: "trans",
		Aggs: []string{"count(*) as cnt", "sum(qty) as sum_qty", "sum(qty * price) as revenue"},
		K:    *k,
	}
	for _, d := range strings.Split(*dims, ",") {
		dim, ok := knownDims[strings.TrimSpace(strings.ToLower(d))]
		if !ok {
			return fmt.Errorf("unknown dimension %q (known: flid,faid,fpgid,qty,year,month)", d)
		}
		cfg.Dims = append(cfg.Dims, dim)
	}

	cat := catalog.New()
	workload.Schema(cat)
	store := storage.NewStore()
	workload.Load(cat, store, workload.StarConfig{NumTrans: *scale, Seed: 1})
	fmt.Fprintf(stdout, "-- measuring %d cuboids over %d fact rows...\n", 1<<len(cfg.Dims), *scale)

	props, lattice, err := advisor.SelectASTs(cfg, cat, store)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "-- lattice top (raw data): %d rows\n", lattice.Size[lattice.Top()])
	for i, p := range props {
		fmt.Fprintf(stdout, "-- pick %d: dims=%v rows=%d benefit=%d\n", i+1, p.Dims, p.Rows, p.Benefit)
		fmt.Fprintf(stdout, "CREATE SUMMARY TABLE %s AS\n  %s;\n\n", p.Def.Name, p.Def.SQL)
	}
	if len(props) == 0 {
		fmt.Fprintln(stdout, "-- no beneficial summary tables found")
	}
	return nil
}
