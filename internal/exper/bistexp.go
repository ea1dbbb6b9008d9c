package exper

import (
	"fmt"
	"strings"

	"gobd/internal/atpg"
	"gobd/internal/bist"
	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// BISTRow is one (circuit, stream length) measurement.
type BISTRow struct {
	Name          string
	Cycles        int
	Universe      int
	Testable      int // exhaustively testable (the ceiling)
	Detected      int // faults with at least one detecting launch in the stream
	Aliased       int // detected per-cycle but masked in the MISR signature
	Deterministic int // size of the deterministic ATPG set for comparison
}

// BIST evaluates the paper's closing suggestion — built-in self test for
// OBD — quantitatively: an LFSR test-per-clock stream with MISR signature
// compaction, graded against the OBD fault universe. Coverage climbs with
// stream length toward the exhaustive-testability ceiling, and signature
// aliasing stays negligible, which is what makes autonomous in-field
// testing of these defects practical.
type BIST struct {
	Rows []BISTRow
}

// RunBIST runs LFSR streams of increasing length on the benchmark suite.
func RunBIST() (*BIST, error) {
	sched := atpg.NewScheduler(0)
	out := &BIST{}
	for _, lc := range []*logic.Circuit{
		cells.FullAdderSumLogic(),
		logic.C17(),
		logic.Mux41(),
	} {
		faults, _ := fault.OBDUniverse(lc)
		ex, err := sched.AnalyzeExhaustive(lc, faults)
		if err != nil {
			return nil, err
		}
		det, err := sched.GenerateOBDTests(lc, faults, nil)
		if err != nil {
			return nil, err
		}
		for _, cycles := range []int{16, 64, 256} {
			s, err := bist.NewSession(lc, 0xACE1, cycles)
			if err != nil {
				return nil, err
			}
			golden, err := s.GoldenSignature()
			if err != nil {
				return nil, err
			}
			row := BISTRow{
				Name: lc.Name, Cycles: cycles,
				Universe: len(faults), Testable: ex.TestableCount(),
				Deterministic: len(det.Tests),
			}
			for _, f := range faults {
				res, err := s.RunFault(f, golden)
				if err != nil {
					return nil, err
				}
				if res.DetectedCycles > 0 {
					row.Detected++
					if res.Aliased {
						row.Aliased++
					}
				}
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}

// Format prints the coverage-vs-length table.
func (b *BIST) Format() string {
	var sb strings.Builder
	sb.WriteString("BIST: LFSR test-per-clock OBD coverage with MISR compaction\n")
	fmt.Fprintf(&sb, "  %-15s %7s %9s %10s %8s %8s\n", "circuit", "cycles", "testable", "detected", "aliased", "det.set")
	for _, r := range b.Rows {
		fmt.Fprintf(&sb, "  %-15s %7d %9d %10d %8d %8d\n",
			r.Name, r.Cycles, r.Testable, r.Detected, r.Aliased, r.Deterministic)
	}
	return sb.String()
}

// Check verifies: coverage never decreases with stream length, the longest
// stream reaches at least 90% of the exhaustive-testability ceiling on
// every circuit, and aliasing never exceeds 2% of detections.
func (b *BIST) Check() []string {
	var bad []string
	prev := map[string]int{}
	last := map[string]BISTRow{}
	for _, r := range b.Rows {
		if p, ok := prev[r.Name]; ok && r.Detected < p {
			bad = append(bad, fmt.Sprintf("%s: coverage fell from %d to %d at %d cycles", r.Name, p, r.Detected, r.Cycles))
		}
		prev[r.Name] = r.Detected
		last[r.Name] = r
		if r.Detected > 0 && r.Aliased*50 > r.Detected {
			bad = append(bad, fmt.Sprintf("%s/%d: aliasing %d of %d detections", r.Name, r.Cycles, r.Aliased, r.Detected))
		}
	}
	for _, name := range sortedKeys(last) {
		r := last[name]
		if r.Detected*10 < r.Testable*9 {
			bad = append(bad, fmt.Sprintf("%s: %d-cycle BIST reaches only %d of %d testable", name, r.Cycles, r.Detected, r.Testable))
		}
	}
	return bad
}
