package exper

import (
	"fmt"
	"strings"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/seq"
)

// ScanRow is one circuit's entry in the DFT comparison.
type ScanRow struct {
	Name     string
	Universe int
	Enhanced atpg.Coverage // unconstrained vector pairs (enhanced scan)
	LOS      atpg.Coverage // launch-on-shift constrained pairs
	LOSExact bool
}

// ScanComparison reproduces the paper's Section 5 DFT remark
// quantitatively: OBD tests need two specific vectors on consecutive
// cycles, so standard scan with launch-on-shift — which can only launch a
// 1-bit shift of the loaded vector — covers fewer OBD faults than
// enhanced scan, which applies arbitrary pairs. "We need
// design-for-testability methods to enhance controllability."
type ScanComparison struct {
	Rows []ScanRow
}

// scanSuite returns the circuits used by the comparison.
func scanSuite() []*logic.Circuit {
	return []*logic.Circuit{
		cells.FullAdderSumLogic(),
		logic.C17(),
		logic.ParityTree(4),
		logic.Mux41(),
	}
}

// RunScanComparison runs both generators over the benchmark suite: the
// unconstrained OBD generator for enhanced scan, and launch-on-shift over
// a scan chain through every circuit input (seq.InputChain).
func RunScanComparison() (*ScanComparison, error) {
	sched := atpg.NewScheduler(0)
	out := &ScanComparison{}
	for _, lc := range scanSuite() {
		faults, _ := fault.OBDUniverse(lc)
		enh, err := sched.GenerateOBDTests(lc, faults, nil)
		if err != nil {
			return nil, err
		}
		chain, err := seq.InputChain(lc)
		if err != nil {
			return nil, err
		}
		los, err := seq.GenerateTestsOn(sched, chain, faults, seq.LOS, nil)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ScanRow{
			Name:     lc.Name,
			Universe: len(faults),
			Enhanced: enh.Coverage,
			LOS:      los.Coverage,
			LOSExact: los.Exact,
		})
	}
	return out, nil
}

// Format prints the comparison table.
func (s *ScanComparison) Format() string {
	var b strings.Builder
	b.WriteString("Section 5 DFT: enhanced scan vs launch-on-shift OBD coverage\n")
	fmt.Fprintf(&b, "  %-15s %8s %18s %18s\n", "circuit", "faults", "enhanced scan", "launch-on-shift")
	for _, r := range s.Rows {
		exact := ""
		if r.LOSExact {
			exact = " (exact)"
		}
		fmt.Fprintf(&b, "  %-15s %8d %18s %18s%s\n", r.Name, r.Universe,
			r.Enhanced.String(), r.LOS.String(), exact)
	}
	return b.String()
}

// Check verifies LOS never exceeds enhanced scan and falls strictly short
// somewhere — the reason the paper calls for DFT support.
func (s *ScanComparison) Check() []string {
	var bad []string
	strict := false
	for _, r := range s.Rows {
		if r.LOS.Detected > r.Enhanced.Detected {
			bad = append(bad, fmt.Sprintf("%s: LOS above enhanced scan", r.Name))
		}
		if r.LOS.Detected < r.Enhanced.Detected {
			strict = true
		}
	}
	if !strict {
		bad = append(bad, "LOS matched enhanced scan everywhere (no DFT motivation shown)")
	}
	return bad
}

// GapSuite runs the traditional-vs-OBD coverage comparison across the
// benchmark circuits (the multi-circuit generalization of the paper's
// full-adder result).
type GapSuite struct {
	Gaps []*CoverageGap
}

// RunGapSuite runs RunCoverageGap on every benchmark circuit.
func RunGapSuite() (*GapSuite, error) {
	out := &GapSuite{}
	for _, lc := range scanSuite() {
		g, err := RunCoverageGap(lc.Name, lc)
		if err != nil {
			return nil, err
		}
		out.Gaps = append(out.Gaps, g)
	}
	return out, nil
}

// Format prints every circuit's comparison.
func (g *GapSuite) Format() string {
	var b strings.Builder
	for _, gap := range g.Gaps {
		b.WriteString(gap.Format())
	}
	return b.String()
}

// Check requires every circuit to show the gap.
func (g *GapSuite) Check() []string {
	var bad []string
	for _, gap := range g.Gaps {
		for _, v := range gap.Check() {
			bad = append(bad, gap.Name+": "+v)
		}
	}
	return bad
}
