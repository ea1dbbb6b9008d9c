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

// TestGoldenOutputs runs obdlint in-process over the committed circuits
// and compares stdout with testdata/<name>.golden byte for byte. It also
// holds the exact-census lines the CI census steps grep for, and the
// usage error a negative -top must raise.
func TestGoldenOutputs(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // a line stdout must contain
	}{
		{"fulladder", []string{"-circuit", "fulladder"}, "exact: 78 faults, 65 testable, 13 untestable, 0 aborted"},
		{"fulladder-proofs", []string{"-circuit", "fulladder", "-proofs"}, "proof of d3=1: 1-lemma RUP proof"},
		{"fulladder-json", []string{"-circuit", "fulladder", "-json"}, `"net": "d3"`},
		{"c432", []string{"-netlist", "../../testdata/c432.bench"}, "exact: 584 faults, 567 testable, 17 untestable, 0 aborted"},
		{"s27", []string{"-netlist", "../../testdata/s27.bench"}, "exact: 40 faults, 26 testable, 14 untestable, 0 aborted"},
		{"no-faults", []string{"-circuit", "c17", "-circuit", "rca4", "-circuit", "mux41", "-no-faults"}, "circuit mux41: 6 inputs, 1 outputs, 19 gates"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
				t.Fatalf("obdlint %s: exit %d, stderr %q", strings.Join(tc.args, " "), code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.want) {
				t.Errorf("stdout lacks %q", tc.want)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("stdout differs from %s; if the change is intentional, regenerate with `go test ./cmd/obdlint -update`\ngot:\n%s", path, stdout.String())
			}
		})
	}
}

// TestNegativeTopIsUsageError: a negative -top exits 2 without a panic.
func TestNegativeTopIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-circuit", "fulladder", "-top", "-1"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
	}
	if strings.Contains(stderr.String(), "panic:") || !strings.Contains(stderr.String(), "-top must be >= 0") {
		t.Fatalf("stderr %q, want the -top usage message", stderr.String())
	}
}
