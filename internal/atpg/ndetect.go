package atpg

import (
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// GenerateNDetectOBDTests builds an n-detect OBD test set (the
// transition-fault n-detection idea of Pomeranz & Reddy, which the paper
// cites): every testable fault is detected by at least n DISTINCT vector
// pairs where the pair space allows. Higher n hardens the set against
// timing marginality and sharpens diagnosis. The generator enumerates each
// fault's detecting pairs from the exhaustive space (so it requires ≤16
// primary inputs) and greedily reuses pairs across faults. The
// enumeration and the final grade run on the scheduler's pool.
func (s *Scheduler) GenerateNDetectOBDTests(c *logic.Circuit, faults []fault.OBD, n int) (*TestSet, error) {
	if n < 1 {
		n = 1
	}
	ex, err := s.AnalyzeExhaustive(c, faults)
	if err != nil {
		return nil, err
	}
	// detectedBy[f] = pair indices detecting fault f.
	detectedBy := make([][]int, len(faults))
	for pi, det := range ex.DetectedBy {
		for _, fi := range det {
			detectedBy[fi] = append(detectedBy[fi], pi)
		}
	}
	count := make([]int, len(faults))
	chosen := make(map[int]bool)
	// Greedy: repeatedly pick the pair adding the most missing detections.
	for {
		best, bestGain := -1, 0
		for pi, det := range ex.DetectedBy {
			if chosen[pi] {
				continue
			}
			gain := 0
			for _, fi := range det {
				if count[fi] < n && count[fi] < len(detectedBy[fi]) {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = pi, gain
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		for _, fi := range ex.DetectedBy[best] {
			count[fi]++
		}
	}
	ts := &TestSet{}
	for pi := range ex.Pairs {
		if chosen[pi] {
			ts.Tests = append(ts.Tests, ex.Pairs[pi])
		}
	}
	for fi, f := range faults {
		st := Untestable
		if count[fi] > 0 {
			st = Detected
		}
		ts.Results = append(ts.Results, Result{Fault: f.String(), Status: st})
	}
	cov, err := s.GradeOBD(c, faults, ts.Tests)
	if err != nil {
		return nil, err
	}
	ts.Coverage = cov
	return ts, nil
}
