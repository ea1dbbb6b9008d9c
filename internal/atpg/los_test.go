package atpg_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/seq"
)

// The unconstrained generator of this package models enhanced scan. These
// tests hold it against launch-on-shift over a scan chain through every
// circuit input (seq.InputChain with seq.LOS), which can only launch a
// one-bit shift of the loaded vector.

// TestLOSWeakerThanEnhancedScan: for the 2-input NAND, LOS cannot reach
// the PMOS@b test (11,10): shifting (1,1) gives (s,1), never (1,0) — so
// enhanced scan covers strictly more, and g1/PMOS@b is the one fault LOS
// misses.
func TestLOSWeakerThanEnhancedScan(t *testing.T) {
	c, err := logic.ParseString("circuit g\ninput a b\noutput y\nnand g1 y a b\n")
	if err != nil {
		t.Fatal(err)
	}
	chain, err := seq.InputChain(c)
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := fault.OBDUniverse(c)
	sched := atpg.NewScheduler(0)
	los, err := seq.GenerateTestsOn(sched, chain, faults, seq.LOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !los.Exact {
		t.Fatal("search should be exhaustive at 2 inputs")
	}
	enh, err := sched.GenerateOBDTests(c, faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	if los.Coverage.Detected >= enh.Coverage.Detected {
		t.Fatalf("LOS %v should be strictly below enhanced scan %v", los.Coverage, enh.Coverage)
	}
	if !reflect.DeepEqual(los.Coverage.Undetected, []string{"g1/PMOS@b"}) {
		t.Fatalf("LOS missed %v, want exactly g1/PMOS@b", los.Coverage.Undetected)
	}
}

// TestQuickLOSSubsetOfUnconstrained: any LOS-detected fault is detectable
// by the unconstrained generator too.
func TestQuickLOSSubsetOfUnconstrained(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 2 + rng.Intn(3), Gates: 1 + rng.Intn(8), Primitive: true})
		faults, _ := fault.OBDUniverse(c)
		if len(faults) == 0 {
			return true
		}
		chain, err := seq.InputChain(c)
		if err != nil {
			return false
		}
		fl := faults[rng.Intn(len(faults))]
		tp, st, err := seq.Generate(chain, fl, seq.LOS, nil)
		if err != nil {
			return false
		}
		if st != atpg.Detected {
			return true
		}
		if !atpg.DetectsOBD(c, fl, *tp) {
			return false
		}
		_, st2 := atpg.GenerateOBDTest(c, fl, nil)
		return st2 == atpg.Detected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
