package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden output")

// TestGolden runs the advisor at a small scale over four dimensions and
// compares what it prints with testdata/picks.golden (go test -update
// rewrites it).
func TestGolden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scale", "1000", "-k", "3", "-dims", "flid, FAID,year,month"}, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "picks.golden")
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if out.String() != string(want) {
		t.Errorf("output differs from %s (run with -update to regenerate)\n%s", path, out.String())
	}
}

// TestRefusals checks the dimension lists run refuses, and that k = 0 picks
// nothing.
func TestRefusals(t *testing.T) {
	for _, tc := range []struct {
		args []string
		err  string
	}{
		{[]string{"-dims", "flid,colour"}, `unknown dimension "colour"`},
		{[]string{"-scale", "10", "-dims", strings.Repeat("qty,", 12) + "qty"}, "dimension count 13 out of range"},
	} {
		if err := run(tc.args, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%v: error %v, want one that says %q", tc.args, err, tc.err)
		}
	}
	var out strings.Builder
	if err := run([]string{"-scale", "10", "-k", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "-- no beneficial summary tables found") {
		t.Errorf("k = 0 printed:\n%s", out.String())
	}
}
