package atpg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

func TestNDetectCountsMeetTarget(t *testing.T) {
	sched := NewScheduler(0)
	c := mustCircuit(t, xorNandSrc)
	faults, _ := fault.OBDUniverse(c)
	ex := must(sched.AnalyzeExhaustive(c, faults))
	maxDet := make([]int, len(faults))
	for _, det := range ex.DetectedBy {
		for _, fi := range det {
			maxDet[fi]++
		}
	}
	for _, n := range []int{1, 3, 5} {
		ts := must(sched.GenerateNDetectOBDTests(c, faults, n))
		counts := must(sched.DetectionCounts(c, faults, ts.Tests))
		for fi := range faults {
			want := n
			if maxDet[fi] < want {
				want = maxDet[fi]
			}
			if counts[fi] < want {
				t.Fatalf("n=%d: fault %s detected %d times, want >= %d",
					n, faults[fi], counts[fi], want)
			}
		}
	}
}

func TestNDetectSetGrowsWithN(t *testing.T) {
	sched := NewScheduler(0)
	c := mustCircuit(t, xorNandSrc)
	faults, _ := fault.OBDUniverse(c)
	prev := 0
	for _, n := range []int{1, 2, 4} {
		ts := must(sched.GenerateNDetectOBDTests(c, faults, n))
		if len(ts.Tests) < prev {
			t.Fatalf("n=%d produced fewer tests (%d) than smaller n (%d)", n, len(ts.Tests), prev)
		}
		prev = len(ts.Tests)
		// Coverage must match exhaustive testability regardless of n.
		ex := must(sched.AnalyzeExhaustive(c, faults))
		if ts.Coverage.Detected != ex.TestableCount() {
			t.Fatalf("n=%d coverage %v vs testable %d", n, ts.Coverage, ex.TestableCount())
		}
	}
}

func TestMultiFaultSingleReduces(t *testing.T) {
	// A one-element ensemble must behave exactly like the single-fault
	// simulator.
	c := mustCircuit(t, xorNandSrc)
	faults, _ := fault.OBDUniverse(c)
	pats := allPatterns(c)
	for _, f := range faults[:6] {
		for _, v1 := range pats {
			for _, v2 := range pats {
				tp := TwoPattern{V1: v1, V2: v2}
				if DetectsOBD(c, f, tp) != DetectsOBDMulti(c, []fault.OBD{f}, tp) {
					t.Fatalf("single-fault mismatch for %s at %s", f, tp.StringFor(c))
				}
			}
		}
	}
}

func TestMultiFaultMaskingExists(t *testing.T) {
	// Two defects can mask each other on some pair where one alone is
	// detected — find at least one masking instance on the XOR circuit.
	c := mustCircuit(t, xorNandSrc)
	faults, _ := fault.OBDUniverse(c)
	pats := allPatterns(c)
	masked := false
	for i := 0; i < len(faults) && !masked; i++ {
		for j := i + 1; j < len(faults) && !masked; j++ {
			pair := []fault.OBD{faults[i], faults[j]}
			for _, v1 := range pats {
				for _, v2 := range pats {
					tp := TwoPattern{V1: v1, V2: v2}
					single := DetectsOBD(c, faults[i], tp) || DetectsOBD(c, faults[j], tp)
					multi := DetectsOBDMulti(c, pair, tp)
					if single && !multi {
						masked = true
					}
				}
			}
		}
	}
	if !masked {
		t.Fatal("expected at least one masking instance between fault pairs")
	}
}

func TestGradeOBDMulti(t *testing.T) {
	sched := NewScheduler(0)
	c := mustCircuit(t, xorNandSrc)
	faults, _ := fault.OBDUniverse(c)
	ts := must(sched.GenerateOBDTests(c, faults, nil))
	var ensembles [][]fault.OBD
	for i := 0; i+1 < len(faults); i += 2 {
		ensembles = append(ensembles, []fault.OBD{faults[i], faults[i+1]})
	}
	cov := must(sched.GradeOBDMulti(c, ensembles, ts.Tests))
	if cov.Total != len(ensembles) {
		t.Fatalf("total %d", cov.Total)
	}
	if cov.Detected == 0 {
		t.Fatal("single-fault set detected no double faults at all")
	}
}

// TestQuickMultiFaultUnionBound: an ensemble is detected by a pair
// whenever exactly one of its members is excited and that member alone is
// detected by the pair (no second defect interferes when it is silent on
// both frames at the fault site).
func TestQuickMultiFaultExcitedSingleton(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 2 + rng.Intn(3), Gates: 2 + rng.Intn(10), Primitive: true})
		faults, _ := fault.OBDUniverse(c)
		if len(faults) < 2 {
			return true
		}
		fa := faults[rng.Intn(len(faults))]
		fb := faults[rng.Intn(len(faults))]
		if fa == fb {
			return true
		}
		mk := func() Pattern {
			p := make(Pattern, len(c.Inputs))
			for _, in := range c.Inputs {
				p[in] = logic.FromBool(rng.Intn(2) == 1)
			}
			return p
		}
		tp := TwoPattern{V1: mk(), V2: mk()}
		g1 := c.Eval(tp.V1, nil)
		g2 := c.Eval(tp.V2, nil)
		lv := func(f fault.OBD, vals map[string]logic.Value) []logic.Value {
			out := make([]logic.Value, len(f.Gate.Inputs))
			for i, in := range f.Gate.Inputs {
				out[i] = vals[in]
			}
			return out
		}
		bExcited := fb.Excited(lv(fb, g1), lv(fb, g2))
		if bExcited {
			return true // only check the singleton-excitation case
		}
		single := DetectsOBD(c, fa, tp)
		multi := DetectsOBDMulti(c, []fault.OBD{fa, fb}, tp)
		return single == multi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
