package atpg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

func TestGradeOBDParallelMatchesOnFullAdderTests(t *testing.T) {
	sched := NewScheduler(0)
	c := mustCircuit(t, xorNandSrc)
	faults, _ := fault.OBDUniverse(c)
	ts := must(sched.GenerateOBDTests(c, faults, nil))
	seq := GradeOBD(c, faults, ts.Tests)
	par := must(sched.GradeOBD(c, faults, ts.Tests))
	if seq.Detected != par.Detected || seq.Total != par.Total {
		t.Fatalf("parallel %v != sequential %v", par, seq)
	}
}

// TestQuickParallelMatchesScalar: the 64-way fault simulator agrees with
// DetectsOBD lane by lane on random circuits and random pairs — including
// PARTIAL patterns, whose unassigned/X inputs must be X-masked rather than
// coerced to 0.
func TestQuickParallelMatchesScalar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 1 + rng.Intn(5), Gates: 1 + rng.Intn(15), Primitive: true})
		faults, _ := fault.OBDUniverse(c)
		if len(faults) == 0 {
			return true
		}
		mk := func() Pattern {
			p := make(Pattern, len(c.Inputs))
			for _, in := range c.Inputs {
				switch rng.Intn(8) {
				case 0:
					// leave unassigned (evaluates as X)
				case 1:
					p[in] = logic.X
				default:
					p[in] = logic.FromBool(rng.Intn(2) == 1)
				}
			}
			return p
		}
		nPairs := 1 + rng.Intn(64)
		tests := make([]TwoPattern, nPairs)
		for i := range tests {
			tests[i] = TwoPattern{V1: mk(), V2: mk()}
		}
		for k := 0; k < 3; k++ {
			fl := faults[rng.Intn(len(faults))]
			lane := rng.Intn(nPairs)
			want := DetectsOBD(c, fl, tests[lane])
			// The lane's verdict through the exported grader: it adds one
			// detection to the lanes packed before it.
			got := NewPairGrader(c, tests[:lane+1]).CountDetecting(fl) > NewPairGrader(c, tests[:lane]).CountDetecting(fl)
			if want != got {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGradeOBDSequential(b *testing.B) {
	c, err := logic.ParseString(xorNandSrc)
	if err != nil {
		b.Fatal(err)
	}
	faults, _ := fault.OBDUniverse(c)
	ts := must(NewScheduler(0).GenerateOBDTests(c, faults, nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GradeOBD(c, faults, ts.Tests)
	}
}

func BenchmarkGradeOBDParallel(b *testing.B) {
	sched := NewScheduler(0)
	c, err := logic.ParseString(xorNandSrc)
	if err != nil {
		b.Fatal(err)
	}
	faults, _ := fault.OBDUniverse(c)
	ts := must(sched.GenerateOBDTests(c, faults, nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(sched.GradeOBD(c, faults, ts.Tests))
	}
}
