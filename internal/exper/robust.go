package exper

import (
	"fmt"
	"strings"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/diag"
	"gobd/internal/fault"
)

// NDetectRow is one n value's summary.
type NDetectRow struct {
	N           int
	Tests       int
	Coverage    atpg.Coverage
	MinDetected int           // minimum per-fault detection count among detected faults
	Unique      int           // uniquely diagnosable faults under this set
	DoubleCov   atpg.Coverage // coverage of all two-defect ensembles
}

// NDetect evaluates n-detect OBD test sets (the Pomeranz-style
// n-detection the paper cites for transition faults) on the full adder:
// larger n costs more vectors but hardens the set — better diagnosis
// resolution and better coverage of multi-defect scenarios, both relevant
// to a long-running concurrent test/diagnose/repair loop where defects
// accumulate.
type NDetect struct {
	Rows []NDetectRow
}

// RunNDetect runs n ∈ {1, 3, 5} on the full adder.
func RunNDetect() (*NDetect, error) {
	sched := atpg.NewScheduler(0)
	lc := cells.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(lc)
	// Two-defect ensembles over the testable faults.
	ex, err := sched.AnalyzeExhaustive(lc, faults)
	if err != nil {
		return nil, err
	}
	var testable []fault.OBD
	for i, ok := range ex.Testable {
		if ok {
			testable = append(testable, faults[i])
		}
	}
	var ensembles [][]fault.OBD
	for i := 0; i < len(testable); i++ {
		for j := i + 1; j < len(testable); j++ {
			ensembles = append(ensembles, []fault.OBD{testable[i], testable[j]})
		}
	}
	out := &NDetect{}
	for _, n := range []int{1, 3, 5} {
		ts, err := sched.GenerateNDetectOBDTests(lc, faults, n)
		if err != nil {
			return nil, err
		}
		row := NDetectRow{N: n, Tests: len(ts.Tests), Coverage: ts.Coverage}
		counts, err := sched.DetectionCounts(lc, faults, ts.Tests)
		if err != nil {
			return nil, err
		}
		row.MinDetected = 1 << 30
		for fi := range faults {
			if counts[fi] > 0 && counts[fi] < row.MinDetected {
				row.MinDetected = counts[fi]
			}
		}
		d := diag.Build(lc, faults, ts.Tests)
		row.Unique = d.UniquelyDiagnosable()
		if row.DoubleCov, err = sched.GradeOBDMulti(lc, ensembles, ts.Tests); err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format prints the n-detect table.
func (nd *NDetect) Format() string {
	var b strings.Builder
	b.WriteString("n-detect OBD test sets on the full adder (robustness & diagnosis)\n")
	fmt.Fprintf(&b, "  %2s %6s %16s %8s %8s %18s\n", "n", "tests", "coverage", "min-det", "unique", "double-defect cov")
	for _, r := range nd.Rows {
		fmt.Fprintf(&b, "  %2d %6d %16s %8d %8d %18s\n",
			r.N, r.Tests, r.Coverage.String(), r.MinDetected, r.Unique, r.DoubleCov.String())
	}
	return b.String()
}

// Check verifies monotone hardening: set size, minimum detection count,
// unique diagnosability and double-defect coverage never decrease with n,
// single-fault coverage stays at the testable maximum throughout, and n=5
// strictly improves diagnosis or double coverage over n=1.
func (nd *NDetect) Check() []string {
	var bad []string
	var prev *NDetectRow
	for i := range nd.Rows {
		r := &nd.Rows[i]
		if prev != nil {
			if r.Tests < prev.Tests {
				bad = append(bad, fmt.Sprintf("n=%d: fewer tests than n=%d", r.N, prev.N))
			}
			if r.MinDetected < prev.MinDetected {
				bad = append(bad, fmt.Sprintf("n=%d: min detection count fell", r.N))
			}
			if r.Unique < prev.Unique {
				bad = append(bad, fmt.Sprintf("n=%d: diagnosis resolution fell", r.N))
			}
			if r.DoubleCov.Detected < prev.DoubleCov.Detected {
				bad = append(bad, fmt.Sprintf("n=%d: double-defect coverage fell", r.N))
			}
			if r.Coverage.Detected != prev.Coverage.Detected {
				bad = append(bad, fmt.Sprintf("n=%d: single-fault coverage changed", r.N))
			}
		}
		prev = r
	}
	first, last := nd.Rows[0], nd.Rows[len(nd.Rows)-1]
	if last.Unique <= first.Unique && last.DoubleCov.Detected <= first.DoubleCov.Detected {
		bad = append(bad, "n=5 shows no hardening over n=1")
	}
	return bad
}
