package exper

import (
	"fmt"
	"strings"

	"gobd/internal/atpg"
	"gobd/internal/seq"
)

// SeqModeRow is one sequential testbed's coverage per application mode.
type SeqModeRow struct {
	Name     string
	Universe int
	Cov      map[seq.Style]atpg.Coverage
}

// SeqModes extends the DFT study to sequential circuits: the same
// combinational core graded under enhanced scan, launch-on-shift and
// launch-on-capture pair spaces (each enumerated exhaustively). It
// quantifies the paper's Section 5 statement that sequential TPG for OBD
// "is more complicated than sequential TPG for stuck-at faults due to the
// need to generate two distinct input combinations at consecutive clock
// cycles".
type SeqModes struct {
	Rows []SeqModeRow
}

// RunSeqModes runs the three modes over the sequential testbeds.
func RunSeqModes() (*SeqModes, error) {
	sched := atpg.NewScheduler(0)
	out := &SeqModes{}
	testbeds := []struct {
		name  string
		build func() (*seq.Circuit, error)
	}{
		{"accumulator2", func() (*seq.Circuit, error) { return seq.Accumulator(2) }},
		{"accumulator3", func() (*seq.Circuit, error) { return seq.Accumulator(3) }},
		{"doubler2", func() (*seq.Circuit, error) { return seq.Doubler(2) }},
		{"doubler3", func() (*seq.Circuit, error) { return seq.Doubler(3) }},
	}
	for _, tb := range testbeds {
		s, err := tb.build()
		if err != nil {
			return nil, err
		}
		row := SeqModeRow{Name: tb.name, Cov: make(map[seq.Style]atpg.Coverage)}
		for _, m := range []seq.Style{seq.Enhanced, seq.LOS, seq.LOC} {
			cov, err := seq.StyleCoverage(sched, s, m)
			if err != nil {
				return nil, fmt.Errorf("exper: %s %v: %w", tb.name, m, err)
			}
			row.Cov[m] = cov
			row.Universe = cov.Total
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Format prints the mode table.
func (s *SeqModes) Format() string {
	var b strings.Builder
	b.WriteString("Section 5 (sequential): OBD coverage per test-application mode (exhaustive pair spaces)\n")
	fmt.Fprintf(&b, "  %-14s %8s %18s %18s %18s\n", "testbed", "faults", "enhanced-scan", "launch-on-shift", "launch-on-capture")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "  %-14s %8d %18s %18s %18s\n", r.Name, r.Universe,
			r.Cov[seq.Enhanced].String(), r.Cov[seq.LOS].String(), r.Cov[seq.LOC].String())
	}
	return b.String()
}

// Check verifies: no constrained mode exceeds enhanced scan anywhere, and
// at least one testbed shows a strict launch-on-capture gap (the
// functional-launch limitation that motivates DFT support).
func (s *SeqModes) Check() []string {
	var bad []string
	strictLOC := false
	for _, r := range s.Rows {
		enh := r.Cov[seq.Enhanced].Detected
		for _, m := range []seq.Style{seq.LOS, seq.LOC} {
			if r.Cov[m].Detected > enh {
				bad = append(bad, fmt.Sprintf("%s: %v exceeds enhanced scan", r.Name, m))
			}
		}
		if r.Cov[seq.LOC].Detected < enh {
			strictLOC = true
		}
	}
	if !strictLOC {
		bad = append(bad, "no testbed shows a launch-on-capture gap")
	}
	return bad
}
