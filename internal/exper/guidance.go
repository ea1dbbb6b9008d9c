package exper

import (
	"fmt"
	"strings"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// GuidanceRow is one circuit's guided-vs-unguided comparison.
type GuidanceRow struct {
	Name        string
	Faults      int
	GuidedBT    int
	UnguidedBT  int
	GuidedCov   atpg.Coverage
	UnguidedCov atpg.Coverage
}

// ATPGGuidance is the SCOAP-steering ablation: PODEM's completeness never
// depends on the heuristics, so coverage must be identical with and
// without testability guidance, while the backtrack spend differs —
// showing the guidance is purely a search-order accelerator.
type ATPGGuidance struct {
	Rows []GuidanceRow
}

// RunATPGGuidance runs OBD ATPG with and without SCOAP over the suite plus
// a larger adder.
func RunATPGGuidance() (*ATPGGuidance, error) {
	sched := atpg.NewScheduler(0)
	out := &ATPGGuidance{}
	for _, lc := range []*logic.Circuit{
		cells.FullAdderSumLogic(),
		logic.C17(),
		logic.Mux41(),
		logic.RippleCarryAdder(4),
	} {
		faults, _ := fault.OBDUniverse(lc)
		row := GuidanceRow{Name: lc.Name, Faults: len(faults)}

		optG := atpg.DefaultOptions()
		optG.BacktrackSink = &row.GuidedBT
		tsG, err := sched.GenerateOBDTests(lc, faults, optG)
		if err != nil {
			return nil, err
		}
		row.GuidedCov = tsG.Coverage

		optU := atpg.DefaultOptions()
		optU.DisableSCOAP = true
		optU.BacktrackSink = &row.UnguidedBT
		tsU, err := sched.GenerateOBDTests(lc, faults, optU)
		if err != nil {
			return nil, err
		}
		row.UnguidedCov = tsU.Coverage

		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format prints the comparison.
func (g *ATPGGuidance) Format() string {
	var b strings.Builder
	b.WriteString("ATPG guidance ablation: SCOAP-steered vs unguided PODEM\n")
	fmt.Fprintf(&b, "  %-15s %7s %16s %12s %12s\n", "circuit", "faults", "coverage", "guided BT", "unguided BT")
	for _, r := range g.Rows {
		fmt.Fprintf(&b, "  %-15s %7d %16s %12d %12d\n",
			r.Name, r.Faults, r.GuidedCov.String(), r.GuidedBT, r.UnguidedBT)
	}
	return b.String()
}

// Check verifies coverage is heuristic-independent on every circuit and
// that guidance does not inflate the total backtrack spend.
func (g *ATPGGuidance) Check() []string {
	var bad []string
	totG, totU := 0, 0
	for _, r := range g.Rows {
		if r.GuidedCov.Detected != r.UnguidedCov.Detected {
			bad = append(bad, fmt.Sprintf("%s: coverage differs with guidance (%v vs %v)",
				r.Name, r.GuidedCov, r.UnguidedCov))
		}
		totG += r.GuidedBT
		totU += r.UnguidedBT
	}
	if totG > totU {
		bad = append(bad, fmt.Sprintf("guidance increased total backtracks (%d vs %d)", totG, totU))
	}
	return bad
}
