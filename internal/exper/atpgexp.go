package exper

import (
	"fmt"
	"sort"
	"strings"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// ExcitationSets reproduces the Section 4.1 (NAND) and Section 5 (NOR)
// necessary-and-sufficient input-sequence derivations, plus the AOI21
// extension the paper's "complex gates" remark points at.
type ExcitationSets struct {
	Tables map[string]map[string][]fault.Pair // gate -> fault -> pairs
	Covers map[string][]fault.Pair            // gate -> exact minimum cover
}

// RunExcitationSets computes the tables and minimal covers.
func RunExcitationSets() (*ExcitationSets, error) {
	out := &ExcitationSets{
		Tables: make(map[string]map[string][]fault.Pair),
		Covers: make(map[string][]fault.Pair),
	}
	for _, tc := range []struct {
		name  string
		typ   logic.GateType
		arity int
	}{
		{"inv", logic.Inv, 1},
		{"nand2", logic.Nand, 2},
		{"nor2", logic.Nor, 2},
		{"nand3", logic.Nand, 3},
		{"aoi21", logic.Aoi21, 3},
	} {
		table, err := fault.GatePairTable(tc.typ, tc.arity)
		if err != nil {
			return nil, err
		}
		out.Tables[tc.name] = table
		cover, err := fault.MinimalPairCover(tc.typ, tc.arity)
		if err != nil {
			return nil, err
		}
		out.Covers[tc.name] = cover
	}
	return out, nil
}

// Format renders per-gate fault tables and covers.
func (e *ExcitationSets) Format() string {
	var b strings.Builder
	b.WriteString("Sections 4.1 & 5: OBD excitation conditions per gate type\n")
	var gates []string
	for g := range e.Tables {
		gates = append(gates, g)
	}
	sort.Strings(gates)
	for _, g := range gates {
		fmt.Fprintf(&b, "%s:\n", g)
		var fs []string
		for f := range e.Tables[g] {
			fs = append(fs, f)
		}
		sort.Strings(fs)
		for _, f := range fs {
			var ps []string
			for _, p := range e.Tables[g][f] {
				ps = append(ps, p.String())
			}
			sort.Strings(ps)
			fmt.Fprintf(&b, "  %-14s %s\n", f, strings.Join(ps, " "))
		}
		var cs []string
		for _, p := range e.Covers[g] {
			cs = append(cs, p.String())
		}
		fmt.Fprintf(&b, "  minimum cover (%d): %s\n", len(cs), strings.Join(cs, " "))
	}
	return b.String()
}

// Check verifies the exact statements the paper makes for NAND and NOR.
func (e *ExcitationSets) Check() []string {
	var bad []string
	expect := func(gate, flt string, want ...string) {
		got := map[string]bool{}
		for _, p := range e.Tables[gate][flt] {
			got[p.String()] = true
		}
		if len(got) != len(want) {
			bad = append(bad, fmt.Sprintf("%s %s: %d pairs, want %d", gate, flt, len(got), len(want)))
			return
		}
		for _, w := range want {
			if !got[w] {
				bad = append(bad, fmt.Sprintf("%s %s missing %s", gate, flt, w))
			}
		}
	}
	expect("nand2", "nand/NMOS@a", "(00,11)", "(01,11)", "(10,11)")
	expect("nand2", "nand/NMOS@b", "(00,11)", "(01,11)", "(10,11)")
	expect("nand2", "nand/PMOS@a", "(11,01)")
	expect("nand2", "nand/PMOS@b", "(11,10)")
	expect("nor2", "nor/PMOS@a", "(01,00)", "(10,00)", "(11,00)")
	expect("nor2", "nor/PMOS@b", "(01,00)", "(10,00)", "(11,00)")
	expect("nor2", "nor/NMOS@a", "(00,10)")
	expect("nor2", "nor/NMOS@b", "(00,01)")
	if n := len(e.Covers["nand2"]); n != 3 {
		bad = append(bad, fmt.Sprintf("nand2 cover size %d, want 3", n))
	}
	if n := len(e.Covers["nor2"]); n != 3 {
		bad = append(bad, fmt.Sprintf("nor2 cover size %d, want 3", n))
	}
	return bad
}

// FullAdderCounts reproduces the Section 4.3 census on the reconstructed
// Fig. 8 circuit: OBD locations in the NANDs, testable fault count, the
// exhaustive input-transition universe, and the size of a small covering
// test set.
type FullAdderCounts struct {
	Circuit         *logic.Circuit
	NANDLocations   int // paper: 56
	TotalLocations  int // including the 11 inverters
	TestableNAND    int // paper: 32
	TestableTotal   int
	TransitionPairs int // ordered distinct vector pairs; paper speaks of 72
	CoverSize       int // paper: 18
	Cover           []atpg.TwoPattern
	ATPGDetected    int
	ATPGUntestable  int
	ATPGAborted     int
	CollapsedTotal  int // local-equivalence classes over the whole universe
}

// RunFullAdderCounts performs the exhaustive analysis and the ATPG run.
func RunFullAdderCounts() (*FullAdderCounts, error) {
	sched := atpg.NewScheduler(0)
	lc := cells.FullAdderSumLogic()
	faults, skipped := fault.OBDUniverse(lc)
	if len(skipped) != 0 {
		return nil, fmt.Errorf("exper: unexpected composite gates in full adder")
	}
	out := &FullAdderCounts{Circuit: lc, TotalLocations: len(faults)}
	var nandIdx []int
	for i, f := range faults {
		if f.Gate.Type == logic.Nand {
			out.NANDLocations++
			nandIdx = append(nandIdx, i)
		}
	}
	out.CollapsedTotal = len(fault.CollapseOBD(faults))
	ex, err := sched.AnalyzeExhaustive(lc, faults)
	if err != nil {
		return nil, err
	}
	out.TransitionPairs = len(ex.Pairs)
	out.TestableTotal = ex.TestableCount()
	for _, i := range nandIdx {
		if ex.Testable[i] {
			out.TestableNAND++
		}
	}
	out.Cover = ex.GreedyCover()
	out.CoverSize = len(out.Cover)
	ts, err := sched.GenerateOBDTests(lc, faults, nil)
	if err != nil {
		return nil, err
	}
	for _, r := range ts.Results {
		switch r.Status {
		case atpg.Detected:
			out.ATPGDetected++
		case atpg.Untestable:
			out.ATPGUntestable++
		default:
			out.ATPGAborted++
		}
	}
	return out, nil
}

// Format prints the census beside the paper's numbers.
func (f *FullAdderCounts) Format() string {
	var b strings.Builder
	b.WriteString("Section 4.3: full-adder sum OBD census (paper values in brackets)\n")
	fmt.Fprintf(&b, "  OBD locations in the 14 NANDs:     %d  [56]\n", f.NANDLocations)
	fmt.Fprintf(&b, "  OBD locations incl. inverters:     %d\n", f.TotalLocations)
	fmt.Fprintf(&b, "  local-equivalence classes:         %d (series stacks collapse)\n", f.CollapsedTotal)
	fmt.Fprintf(&b, "  testable NAND OBD faults:          %d  [32]\n", f.TestableNAND)
	fmt.Fprintf(&b, "  testable OBD faults (all gates):   %d\n", f.TestableTotal)
	fmt.Fprintf(&b, "  ordered input transitions:         %d  [72]\n", f.TransitionPairs)
	fmt.Fprintf(&b, "  covering transition set (greedy):  %d  [18]\n", f.CoverSize)
	fmt.Fprintf(&b, "  ATPG: %d detected, %d untestable, %d aborted\n",
		f.ATPGDetected, f.ATPGUntestable, f.ATPGAborted)
	var ps []string
	for _, tp := range f.Cover {
		ps = append(ps, tp.StringFor(f.Circuit))
	}
	fmt.Fprintf(&b, "  cover: %s\n", strings.Join(ps, " "))
	return b.String()
}

// Check verifies the structural count (exact) and the qualitative claims:
// redundancy makes a substantial fraction of faults untestable, and a
// small transition subset covers everything testable.
func (f *FullAdderCounts) Check() []string {
	var bad []string
	if f.NANDLocations != 56 {
		bad = append(bad, fmt.Sprintf("NAND OBD locations %d, want 56", f.NANDLocations))
	}
	if f.TestableNAND >= f.NANDLocations {
		bad = append(bad, "expected some untestable faults from the intentional redundancy")
	}
	if f.TestableNAND < f.NANDLocations/3 {
		bad = append(bad, fmt.Sprintf("testable NAND faults %d suspiciously low", f.TestableNAND))
	}
	if f.CoverSize > f.TransitionPairs/2 {
		bad = append(bad, fmt.Sprintf("cover %d is not small against %d transitions", f.CoverSize, f.TransitionPairs))
	}
	if f.ATPGDetected != f.TestableTotal {
		bad = append(bad, fmt.Sprintf("ATPG detected %d but exhaustive testable %d", f.ATPGDetected, f.TestableTotal))
	}
	if f.ATPGAborted != 0 {
		bad = append(bad, fmt.Sprintf("%d ATPG aborts", f.ATPGAborted))
	}
	// The 14 NAND stacks collapse their two series NMOS sites each, the
	// inverters don't collapse: 78 - 14 = 64 classes.
	if f.CollapsedTotal != f.TotalLocations-14 {
		bad = append(bad, fmt.Sprintf("collapse classes %d, want %d", f.CollapsedTotal, f.TotalLocations-14))
	}
	return bad
}

// CoverageGap quantifies the paper's central testing claim on a circuit:
// complete stuck-at and transition test sets graded against the OBD fault
// universe, versus the OBD-aware generator.
type CoverageGap struct {
	Name            string
	OBDUniverse     int
	OBDTestable     int
	TransitionCov   atpg.Coverage // transition test set vs OBD universe
	StuckAtCov      atpg.Coverage // stuck-at patterns (paired as v1=v2-neighbours) vs OBD universe
	OBDCov          atpg.Coverage // OBD ATPG vs OBD universe
	TransitionTests int
	OBDTests        int
}

// RunCoverageGap runs the comparison for one gate-level circuit.
func RunCoverageGap(name string, lc *logic.Circuit) (*CoverageGap, error) {
	sched := atpg.NewScheduler(0)
	obdFaults, _ := fault.OBDUniverse(lc)
	ex, err := sched.AnalyzeExhaustive(lc, obdFaults)
	if err != nil {
		return nil, err
	}
	out := &CoverageGap{Name: name, OBDUniverse: len(obdFaults), OBDTestable: ex.TestableCount()}

	trSet, err := sched.GenerateTransitionTests(lc, fault.TransitionUniverse(lc), nil)
	if err != nil {
		return nil, err
	}
	out.TransitionTests = len(trSet.Tests)
	if out.TransitionCov, err = sched.GradeOBD(lc, obdFaults, trSet.Tests); err != nil {
		return nil, err
	}

	// A stuck-at test set has no transition structure at all; pair each
	// pattern with its predecessor to form vectors the way a scan chain
	// would stream them.
	saSet, err := sched.GenerateStuckAtTests(lc, fault.StuckAtUniverse(lc), nil)
	if err != nil {
		return nil, err
	}
	var saPairs []atpg.TwoPattern
	for i := 1; i < len(saSet.Tests); i++ {
		saPairs = append(saPairs, atpg.TwoPattern{V1: saSet.Tests[i-1], V2: saSet.Tests[i]})
	}
	if out.StuckAtCov, err = sched.GradeOBD(lc, obdFaults, saPairs); err != nil {
		return nil, err
	}

	obdSet, err := sched.GenerateOBDTests(lc, obdFaults, nil)
	if err != nil {
		return nil, err
	}
	out.OBDTests = len(obdSet.Tests)
	out.OBDCov = obdSet.Coverage
	return out, nil
}

// Format prints the comparison.
func (g *CoverageGap) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Coverage of the OBD fault universe on %q (%d faults, %d testable):\n",
		g.Name, g.OBDUniverse, g.OBDTestable)
	fmt.Fprintf(&b, "  stuck-at test set (chained):   %s\n", g.StuckAtCov)
	fmt.Fprintf(&b, "  transition test set (%2d vec): %s\n", g.TransitionTests, g.TransitionCov)
	fmt.Fprintf(&b, "  OBD-aware ATPG     (%2d vec): %s\n", g.OBDTests, g.OBDCov)
	return b.String()
}

// Check verifies the ordering the paper implies: OBD-aware ATPG reaches
// every testable fault; the traditional sets fall short.
func (g *CoverageGap) Check() []string {
	var bad []string
	if g.OBDCov.Detected != g.OBDTestable {
		bad = append(bad, fmt.Sprintf("OBD ATPG %d < testable %d", g.OBDCov.Detected, g.OBDTestable))
	}
	if g.TransitionCov.Detected >= g.OBDCov.Detected {
		bad = append(bad, "transition tests unexpectedly cover all OBD faults")
	}
	if g.StuckAtCov.Detected > g.TransitionCov.Detected {
		bad = append(bad, "stuck-at chaining outperformed transition tests (unexpected)")
	}
	return bad
}

// EMComparison reproduces the Section 5 statement: intra-gate EM test
// sequences coincide with OBD's for NAND/NOR at the series-parallel
// abstraction.
type EMComparison struct {
	GateResults map[string]bool // gate -> sets identical
}

// RunEMComparison compares EM and OBD excitation pair sets per gate type.
func RunEMComparison() (*EMComparison, error) {
	out := &EMComparison{GateResults: make(map[string]bool)}
	for _, tc := range []struct {
		name  string
		typ   logic.GateType
		arity int
	}{
		{"nand2", logic.Nand, 2},
		{"nor2", logic.Nor, 2},
		{"nand3", logic.Nand, 3},
		{"aoi21", logic.Aoi21, 3},
	} {
		faults, err := fault.GateOBDFaults(tc.typ, tc.arity)
		if err != nil {
			return nil, err
		}
		same := true
		for _, f := range faults {
			obdPairs := f.ExcitationPairs()
			em := fault.EM(f)
			for _, p := range obdPairs {
				if !em.Excited(p.V1, p.V2) {
					same = false
				}
			}
		}
		out.GateResults[tc.name] = same
	}
	return out, nil
}

// Format prints the per-gate verdicts.
func (e *EMComparison) Format() string {
	var b strings.Builder
	b.WriteString("Section 5: EM vs OBD excitation sets at the series-parallel level\n")
	var gs []string
	for g := range e.GateResults {
		gs = append(gs, g)
	}
	sort.Strings(gs)
	for _, g := range gs {
		fmt.Fprintf(&b, "  %-7s identical=%v\n", g, e.GateResults[g])
	}
	b.WriteString("  (the models diverge below gate level: see the injection ablation)\n")
	return b.String()
}

// Check verifies the NAND/NOR coincidence the paper states.
func (e *EMComparison) Check() []string {
	var bad []string
	for _, g := range []string{"nand2", "nor2"} {
		if !e.GateResults[g] {
			bad = append(bad, fmt.Sprintf("%s: EM and OBD sets differ, paper says identical", g))
		}
	}
	return bad
}
