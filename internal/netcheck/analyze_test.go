// Package netcheck_test cross-checks Analyze's census against the atpg
// package. It lives in the external test package because atpg imports
// netcheck for its Prune option; the internal tests cannot.
package netcheck_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
)

// TestFullAdderVerdicts is the paper-circuit acceptance check: on the
// redundant full-adder sum logic, Analyze's Verdicts must mark exactly
// the faults the exhaustive two-pattern ground truth (3 inputs — all 8·7
// ordered pairs) finds untestable, and every exact verdict behind them
// must verify.
func TestFullAdderVerdicts(t *testing.T) {
	c := cells.FullAdderSumLogic()
	faults, skipped := fault.OBDUniverse(c)
	if len(skipped) != 0 {
		t.Fatalf("full adder has non-primitive gates: %v", skipped)
	}
	r := netcheck.Analyze(c, netcheck.Options{})
	truth := must(atpg.NewScheduler(0).AnalyzeExhaustive(c, faults))
	if len(r.Verdicts) != len(faults) {
		t.Fatalf("%d verdicts for %d faults", len(r.Verdicts), len(faults))
	}
	proved := 0
	for i, v := range r.Verdicts {
		if v.Fault != faults[i].String() {
			t.Fatalf("verdict %d names %s, want %s", i, v.Fault, faults[i])
		}
		if v.Untestable == truth.Testable[i] {
			t.Errorf("%s: untestable=%v but exhaustive analysis says testable=%v", faults[i], v.Untestable, truth.Testable[i])
		}
		if v.Untestable {
			proved++
		}
		if err := netcheck.VerifyExactVerdict(c, faults[i], r.Exact.Verdicts[i]); err != nil {
			t.Errorf("%s: %v", faults[i], err)
		}
	}
	// The redundancy around d3 ≡ 1 pins the exact count: d1 (4), the tied
	// d2 PMOS pair (2), d3 (4), u1 PMOS on the d3 pin (1), the tied u2
	// PMOS pair (2).
	if proved != 13 {
		t.Errorf("census proved %d faults untestable, want 13", proved)
	}
}

// TestHardFaultRanking checks the SCOAP report: sorted hardest-first and
// covering exactly the faults whose exact verdict is not untestable.
func TestHardFaultRanking(t *testing.T) {
	c := cells.FullAdderSumLogic()
	r := netcheck.Analyze(c, netcheck.Options{})
	want := make(map[string]int)
	for _, v := range r.Exact.Verdicts {
		if !v.Untestable() {
			want[v.Fault]++
		}
	}
	hard := r.HardFaults
	got := make(map[string]int)
	for _, h := range hard {
		got[h.Fault]++
	}
	if len(hard) != 65 || !reflect.DeepEqual(got, want) {
		t.Fatalf("ranking covers %d faults %v, want the %d not proved untestable %v", len(hard), got, len(want), want)
	}
	for i := 1; i < len(hard); i++ {
		if hard[i].Cost > hard[i-1].Cost {
			t.Fatalf("ranking not sorted hardest-first at %d: %v > %v", i, hard[i], hard[i-1])
		}
	}
	if top := netcheck.Analyze(c, netcheck.Options{TopHard: 5}).HardFaults; !reflect.DeepEqual(top, hard[:5]) {
		t.Fatalf("top cap not applied: got %v", top)
	}
	for _, h := range hard {
		if h.Cost != h.CC+h.CO {
			t.Fatalf("cost decomposition broken: %+v", h)
		}
	}
}

// TestAnalyzeFullAdderReport exercises the bundled Analyze entry point.
func TestAnalyzeFullAdderReport(t *testing.T) {
	c := cells.FullAdderSumLogic()
	r := netcheck.Analyze(c, netcheck.Options{TopHard: 10})
	if r.Errors() != 0 {
		t.Fatalf("full adder lints with errors: %v", r.Diagnostics)
	}
	if len(r.Constants) != 1 || r.Constants[0].Net != "d3" {
		t.Fatalf("constants = %v, want d3", r.Constants)
	}
	untestable := 0
	for _, v := range r.Verdicts {
		if v.Untestable {
			untestable++
		}
	}
	if untestable != 13 {
		t.Fatalf("untestable count = %d, want 13", untestable)
	}
	if len(r.HardFaults) != 10 {
		t.Fatalf("TopHard not applied: %d", len(r.HardFaults))
	}
	// The constant net must surface as a warning diagnostic too.
	found := false
	for _, d := range r.Diagnostics {
		if d.Code == netcheck.CodeConstantNet && d.Net == "d3" {
			found = true
		}
	}
	if !found {
		t.Fatalf("constant net missing from diagnostics: %v", r.Diagnostics)
	}
}

// must unwraps a (value, error) return in tests, panicking on error; the
// panic fails the calling test with the full error in the log.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// BenchmarkAnalyze times the whole Analyze pipeline (lint, constants,
// the exact census and the hard-fault ranking) on the paper's full adder
// and on c432 (see EXPERIMENTS.md).
func BenchmarkAnalyze(b *testing.B) {
	c432, err := logic.ParseFile("../../testdata/c432.bench")
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []struct {
		name string
		c    *logic.Circuit
	}{{"fulladder", cells.FullAdderSumLogic()}, {"c432", c432}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				netcheck.Analyze(k.c, netcheck.Options{})
			}
		})
	}
}

// TestAnalyzeGoldenDigests pins Analyze's whole report byte for byte:
// the sha256 of the JSON of Analyze(c, Options{}) on c432, s27 and the
// full adder. Lint, constants, the census (witnesses and proofs
// included) and the hard-fault ranking all enter the digest. The .bench
// files load through ParseBench, which leaves the circuit unnamed, so
// the digests do not depend on how a file loader names circuits. The
// c432 and s27 pins moved when each exact instance came to be encoded
// over the fanin closure of its nets only: the census's refutations
// changed as in TestExactGoldenDigests (RUP lemmas renumbered, nothing
// else), and the constants' proofs, each the empty clause alone, did
// not change.
func TestAnalyzeGoldenDigests(t *testing.T) {
	load := func(path string) func() *logic.Circuit {
		return func() *logic.Circuit {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			c, err := logic.ParseBench(f)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	for _, tc := range []struct {
		name   string
		c      func() *logic.Circuit
		bytes  int
		sha256 string
	}{
		{"c432", load("../../testdata/c432.bench"), 511510, "43bb617b2ede3bebd8c5450dc92eb529d35efe7bfaf4fc36491b63c7215365ea"},
		{"s27", load("../../testdata/s27.bench"), 11810, "93285f65a807c82cda9c3d2d36cc99fea21618d4bd0f1cf44e35232033dfe67d"},
		{"full adder", cells.FullAdderSumLogic, 18614, "de8ce155ac5c50fc667d03bd0e5e099abf57159ab9f2d3bf3b1f0a6ff0e2b495"},
	} {
		b, err := json.Marshal(netcheck.Analyze(tc.c(), netcheck.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != tc.bytes || sum != tc.sha256 {
			t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, sha256 %s", tc.name, len(b), sum, tc.bytes, tc.sha256)
		}
	}
}
