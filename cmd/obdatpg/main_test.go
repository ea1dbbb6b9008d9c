package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

const (
	c432 = "../../testdata/c432.bench"
	s27  = "../../testdata/s27.bench"
)

// TestGoldenOutputs runs obdatpg in-process and compares stdout with
// testdata/<name>.golden byte for byte. It also holds the census lines
// the CI steps grep for. The runs marked workers print the same bytes at
// -workers 1 and -workers 3; the others run on one worker.
func TestGoldenOutputs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		workers bool     // also run at -workers 3 against the same golden
		want    []string // lines stdout must contain
	}{
		{"c432-obd", []string{"-netlist", c432, "-model", "obd"}, false,
			[]string{"generated 194 vector pairs, coverage 567/584 (97.1%) (17 untestable, 0 aborted, 0 errored)"}},
		{"c432-transition", []string{"-netlist", c432, "-model", "transition"}, false,
			[]string{"generated 131 vector pairs, coverage 384/392 (98.0%) (8 untestable, 0 aborted, 0 errored)"}},
		{"c432-stuckat", []string{"-netlist", c432, "-model", "stuckat"}, false,
			[]string{"generated 55 patterns, coverage 386/392 (98.5%)"}},
		{"c432-prune", []string{"-netlist", c432, "-model", "obd", "-prune"}, true,
			[]string{"generated 194 vector pairs, coverage 567/584 (97.1%) (17 untestable, 0 aborted, 0 errored)"}},
		{"c432-prune-bt1", []string{"-netlist", c432, "-model", "obd", "-max-backtracks", "1", "-prune"}, true,
			[]string{"coverage 559/584 (95.7%) (17 untestable, 8 aborted, 0 errored)"}},
		{"c432-fallback-bt1", []string{"-netlist", c432, "-model", "obd", "-max-backtracks", "1", "-sat-fallback"}, true,
			[]string{"coverage 567/584 (97.1%) (17 untestable, 0 aborted, 0 errored)",
				"sat fallback: 22 aborts handed over, 7 resolved detected, 15 resolved untestable, 0 undecided"}},
		{"fulladder-prune-fallback", []string{"-fulladder", "-prune", "-sat-fallback", "-max-backtracks", "1", "-v"}, true,
			[]string{"generated 20 vector pairs, coverage 65/78 (83.3%) (13 untestable, 0 aborted, 0 errored)",
				"sat fallback: 0 aborts handed over, 0 resolved detected, 0 resolved untestable, 0 undecided"}},
		{"fulladder-los", []string{"-fulladder", "-model", "los"}, false,
			[]string{"launch-on-shift: generated 52 pairs, coverage 52/78 (66.7%) (exact)"}},
		{"s27-enhanced", []string{"-netlist", s27, "-style", "enhanced"}, false,
			[]string{"enhanced-scan: generated 26 pairs, coverage 26/40 (65.0%) (exact)"}},
		{"s27-los", []string{"-netlist", s27, "-style", "los"}, false,
			[]string{"launch-on-shift: generated 25 pairs, coverage 25/40 (62.5%) (exact)"}},
		{"s27-loc", []string{"-netlist", s27, "-style", "loc"}, false,
			[]string{"launch-on-capture: generated 20 pairs, coverage 20/40 (50.0%) (exact)"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runOK(t, append(tc.args, "-workers", "1"))
			for _, line := range tc.want {
				if !strings.Contains(got, line) {
					t.Errorf("stdout lacks %q", line)
				}
			}
			if tc.workers {
				if w3 := runOK(t, append(tc.args, "-workers", "3")); w3 != got {
					t.Errorf("-workers 3 prints\n%s\n-workers 1 prints\n%s", w3, got)
				}
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("stdout differs from %s; if the change is intentional, regenerate with `go test ./cmd/obdatpg -update`\ngot:\n%s", path, got)
			}
		})
	}
}

// runOK runs obdatpg and returns its stdout, failing the test on a
// non-zero exit or any stderr output.
func runOK(t *testing.T, args []string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("obdatpg %s: exit %d, stderr %q", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String()
}

// TestUsageErrors: every conflicting or out-of-range flag combination
// exits 2 with a message and without a panic, before any generation
// writes to stdout.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-netlist", s27, "-style", "loc", "-model", "transition"},
		{"-fulladder", "-model", "transition", "-prune"},
		{"-fulladder", "-model", "los", "-prune"},
		{"-netlist", s27, "-style", "loc", "-prune"},
		{"-fulladder", "-model", "ndetect", "-sat-fallback"},
		{"-fulladder", "-apply", "tests.vec", "-prune"},
		{"-fulladder", "-max-backtracks", "-3"},
		{"-fulladder", "-model", "ndetect", "-n", "0"},
		{"-fulladder", "-model", "ndetect", "-n", "-5"},
		{"-fulladder", "-model", "bist", "-cycles", "-4"},
		{"-fulladder", "-model", "bist", "-cycles", "0"},
		{"-fulladder", "-model", "bist", "-cycles", "1"},
		{"-random-gates", "5", "-random-inputs", "0"},
		{"-random-gates", "5", "-random-inputs", "-3"},
		{"-random-gates", "5", "-random-ffs", "-2"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || stderr.Len() == 0 || strings.Contains(stderr.String(), "panic:") {
			t.Errorf("obdatpg %s: exit %d, stdout %q, stderr %q; want exit 2 with a usage message",
				strings.Join(args, " "), code, stdout.String(), stderr.String())
		}
	}
}
