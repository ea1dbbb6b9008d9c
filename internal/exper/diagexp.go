package exper

import (
	"fmt"
	"strings"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/diag"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// DiagRow is one circuit's diagnosability summary under two test sets:
// the compact detection-oriented ATPG set, and the exhaustive transition
// set a diagnosis-oriented flow could afford.
type DiagRow struct {
	Name      string
	Detected  int
	Unique    int // singleton classes under the compact ATPG set
	Classes   int
	MaxClass  int
	TestCount int
	// Exhaustive-set counterparts.
	FullUnique   int
	FullClasses  int
	FullMaxClass int
	FullTests    int
}

// Diagnosis evaluates the "diagnose" leg of the paper's concurrent
// test/diagnose/repair loop: how well the OBD test set's failing responses
// localize the defective transistor, measured as indistinguishability
// classes over the fault dictionary.
type Diagnosis struct {
	Rows []DiagRow
}

// RunDiagnosis builds dictionaries for the benchmark circuits.
func RunDiagnosis() (*Diagnosis, error) {
	sched := atpg.NewScheduler(0)
	out := &Diagnosis{}
	for _, lc := range []*logic.Circuit{
		cells.FullAdderSumLogic(),
		logic.C17(),
		logic.Mux41(),
	} {
		faults, _ := fault.OBDUniverse(lc)
		ts, err := sched.GenerateOBDTests(lc, faults, nil)
		if err != nil {
			return nil, err
		}
		d := diag.Build(lc, faults, ts.Tests)
		row := DiagRow{Name: lc.Name, TestCount: len(ts.Tests)}
		classes := d.Classes()
		row.Classes = len(classes)
		for _, cl := range classes {
			row.Detected += len(cl)
			if len(cl) == 1 {
				row.Unique++
			}
			if len(cl) > row.MaxClass {
				row.MaxClass = len(cl)
			}
		}
		// Diagnosis-oriented set: every ordered input transition.
		ex, err := sched.AnalyzeExhaustive(lc, faults)
		if err != nil {
			return nil, err
		}
		dFull := diag.Build(lc, faults, ex.Pairs)
		row.FullTests = len(ex.Pairs)
		for _, cl := range dFull.Classes() {
			row.FullClasses++
			if len(cl) == 1 {
				row.FullUnique++
			}
			if len(cl) > row.FullMaxClass {
				row.FullMaxClass = len(cl)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format prints the diagnosability table.
func (d *Diagnosis) Format() string {
	var b strings.Builder
	b.WriteString("Diagnosis: OBD fault dictionary resolution (full-response signatures)\n")
	fmt.Fprintf(&b, "  %-15s %8s | %6s %8s %8s %8s | %6s %8s %8s\n",
		"circuit", "detected", "tests", "classes", "unique", "maxcls", "tests", "unique", "maxcls")
	fmt.Fprintf(&b, "  %-15s %8s | %31s | %24s\n", "", "", "compact ATPG set", "exhaustive transitions")
	for _, r := range d.Rows {
		fmt.Fprintf(&b, "  %-15s %8d | %6d %8d %8d %8d | %6d %8d %8d\n",
			r.Name, r.Detected, r.TestCount, r.Classes, r.Unique, r.MaxClass,
			r.FullTests, r.FullUnique, r.FullMaxClass)
	}
	return b.String()
}

// Check verifies the dictionaries are useful and that diagnosis-oriented
// sets sharpen them: at least a quarter of the detected faults resolve
// uniquely under the compact set, the exhaustive set never resolves worse
// and improves somewhere, and ambiguity classes stay bounded (a repair
// controller must bound its replacement scope).
func (d *Diagnosis) Check() []string {
	var bad []string
	improved := false
	for _, r := range d.Rows {
		if r.Detected == 0 {
			bad = append(bad, r.Name+": nothing detected")
			continue
		}
		if r.Unique*4 < r.Detected {
			bad = append(bad, fmt.Sprintf("%s: only %d/%d uniquely diagnosable", r.Name, r.Unique, r.Detected))
		}
		if r.FullUnique < r.Unique {
			bad = append(bad, fmt.Sprintf("%s: exhaustive set resolved worse (%d < %d)", r.Name, r.FullUnique, r.Unique))
		}
		if r.FullUnique > r.Unique {
			improved = true
		}
		if r.MaxClass > 8 || r.FullMaxClass > 8 {
			bad = append(bad, fmt.Sprintf("%s: ambiguity class of %d/%d", r.Name, r.MaxClass, r.FullMaxClass))
		}
	}
	if !improved {
		bad = append(bad, "exhaustive set never improved resolution")
	}
	return bad
}
