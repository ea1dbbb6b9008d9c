package exper

import (
	"fmt"
	"sort"
	"strings"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/fault"
)

// DetectProfile characterizes how random-resistant each testable OBD fault
// is: its detection probability p = (detecting pairs) / (all input
// transitions). The profile explains the empirical behaviour of both the
// workload checker (expected detection latency ≈ 1/p launches) and the
// BIST stream length requirements — the tail of low-p faults is what the
// paper's deterministic, excitation-aware sequences buy over random
// exercise.
type DetectProfile struct {
	Name      string
	Pairs     int
	Probs     []float64 // sorted detection probabilities of testable faults
	Hardest   string    // fault with the smallest p
	HardestP  float64
	MedianP   float64
	HardCount int // faults with p < 0.1
}

// RunDetectProfile profiles the full adder.
func RunDetectProfile() (*DetectProfile, error) {
	lc := cells.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(lc)
	ex, err := atpg.NewScheduler(0).AnalyzeExhaustive(lc, faults)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(faults))
	for _, det := range ex.DetectedBy {
		for _, fi := range det {
			counts[fi]++
		}
	}
	out := &DetectProfile{Name: lc.Name, Pairs: len(ex.Pairs), HardestP: 2}
	for fi, n := range counts {
		if n == 0 {
			continue // untestable
		}
		p := float64(n) / float64(len(ex.Pairs))
		out.Probs = append(out.Probs, p)
		if p < out.HardestP {
			out.HardestP = p
			out.Hardest = faults[fi].String()
		}
		if p < 0.1 {
			out.HardCount++
		}
	}
	sort.Float64s(out.Probs)
	if n := len(out.Probs); n > 0 {
		out.MedianP = out.Probs[n/2]
	}
	return out, nil
}

// Format prints the profile summary.
func (d *DetectProfile) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Detection-probability profile on %s (%d transitions)\n", d.Name, d.Pairs)
	fmt.Fprintf(&b, "  testable faults: %d, median p = %.3f\n", len(d.Probs), d.MedianP)
	fmt.Fprintf(&b, "  hardest fault: %s at p = %.3f (expected random latency %.0f launches)\n",
		d.Hardest, d.HardestP, 1/d.HardestP)
	fmt.Fprintf(&b, "  random-resistant faults (p < 0.1): %d\n", d.HardCount)
	return b.String()
}

// Check verifies the profile has the long-tail structure the deterministic
// sequences exploit: a hardest fault well below the median, and at least
// one random-resistant fault.
func (d *DetectProfile) Check() []string {
	var bad []string
	if len(d.Probs) == 0 {
		return []string{"no testable faults profiled"}
	}
	if d.HardestP <= 0 || d.HardestP > d.MedianP {
		bad = append(bad, fmt.Sprintf("profile not long-tailed: hardest %.3f vs median %.3f", d.HardestP, d.MedianP))
	}
	if d.HardCount == 0 {
		bad = append(bad, "no random-resistant faults found")
	}
	return bad
}
