package seq

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// TestNewValidation checks build, the constructor behind every scan model.
func TestNewValidation(t *testing.T) {
	core := logic.C17()
	if _, err := build(core, []FF{{Q: "nope", D: "n22"}}); err == nil {
		t.Fatal("bad Q accepted")
	}
	if _, err := build(core, []FF{{Q: "i1", D: "ghost"}}); err == nil {
		t.Fatal("undriven D accepted")
	}
	if _, err := build(core, []FF{{Q: "i1", D: "n22"}, {Q: "i1", D: "n23"}}); err == nil {
		t.Fatal("double-fed Q accepted")
	}
	s, err := build(core, []FF{{Q: "i1", D: "n22"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.PIs) != 4 {
		t.Fatalf("PIs = %v", s.PIs)
	}
}

func TestAccumulatorNextState(t *testing.T) {
	s, err := Accumulator(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.FFs) != 3 || len(s.PIs) != 4 {
		t.Fatalf("structure: %d FFs, PIs %v", len(s.FFs), s.PIs)
	}
	// state=3 (011), b=2 (010), cin=1 -> next state = 3+2+1 = 6 (110).
	st := State{logic.One, logic.One, logic.Zero}
	pi := atpg.Pattern{"b0": logic.Zero, "b1": logic.One, "b2": logic.Zero, "cin": logic.One}
	next, err := s.NextState(st, pi)
	if err != nil {
		t.Fatal(err)
	}
	want := State{logic.Zero, logic.One, logic.One}
	for i := range want {
		if next[i] != want[i] {
			t.Fatalf("next state %v, want %v", next, want)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if Enhanced.String() != "enhanced-scan" ||
		LOS.String() != "launch-on-shift" ||
		LOC.String() != "launch-on-capture" {
		t.Fatal("mode strings broken")
	}
}

func TestPairSpaceSizes(t *testing.T) {
	s, err := Accumulator(2)
	if err != nil {
		t.Fatal(err)
	}
	// Core inputs: a0,a1,b0,b1,cin = 5 bits; PIs = 3.
	es, err := EnumeratePairs(s, Enhanced)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 32*32 {
		t.Fatalf("enhanced space %d, want 1024", len(es))
	}
	los, err := EnumeratePairs(s, LOS)
	if err != nil {
		t.Fatal(err)
	}
	if len(los) != 32*2*8 {
		t.Fatalf("LOS space %d, want 512", len(los))
	}
	loc, err := EnumeratePairs(s, LOC)
	if err != nil {
		t.Fatal(err)
	}
	if len(loc) != 32*8 {
		t.Fatalf("LOC space %d, want 256", len(loc))
	}
}

func TestPairSpaceConstraints(t *testing.T) {
	s, err := Accumulator(2)
	if err != nil {
		t.Fatal(err)
	}
	// Every LOC pair's second state must equal the next-state function of
	// the first vector.
	loc, err := EnumeratePairs(s, LOC)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range loc {
		st1 := make(State, len(s.FFs))
		pi1 := atpg.Pattern{}
		for i, ff := range s.FFs {
			st1[i] = tp.V1[ff.Q]
		}
		for _, in := range s.PIs {
			pi1[in] = tp.V1[in]
		}
		want, err := s.NextState(st1, pi1)
		if err != nil {
			t.Fatal(err)
		}
		for i, ff := range s.FFs {
			if tp.V2[ff.Q] != want[i] {
				t.Fatalf("LOC pair %v violates next-state constraint", tp)
			}
		}
	}
	// Every LOS pair's second state must be a shift of the first.
	los, err := EnumeratePairs(s, LOS)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range los {
		for i := 1; i < len(s.FFs); i++ {
			if tp.V2[s.FFs[i].Q] != tp.V1[s.FFs[i-1].Q] {
				t.Fatalf("LOS pair %v violates shift constraint", tp)
			}
		}
	}
}

func TestModeCoverageOrdering(t *testing.T) {
	s, err := Accumulator(2)
	if err != nil {
		t.Fatal(err)
	}
	sched := atpg.NewScheduler(0)
	enh, err := StyleCoverage(sched, s, Enhanced)
	if err != nil {
		t.Fatal(err)
	}
	los, err := StyleCoverage(sched, s, LOS)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := StyleCoverage(sched, s, LOC)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("enhanced %v, LOS %v, LOC %v", enh, los, loc)
	if los.Detected > enh.Detected || loc.Detected > enh.Detected {
		t.Fatalf("constrained mode exceeded enhanced scan: %v %v %v", enh, los, loc)
	}
	if enh.Detected == 0 {
		t.Fatal("enhanced scan detected nothing")
	}
}

func TestGenerateTestDetects(t *testing.T) {
	s, err := Accumulator(2)
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := fault.OBDUniverse(s.Core)
	for _, mode := range []Style{Enhanced, LOS, LOC} {
		for k := 0; k < 6; k++ {
			f := faults[k*len(faults)/6]
			tp, st, err := Generate(s, f, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st != atpg.Detected {
				continue
			}
			if !atpg.DetectsOBD(s.Core, f, *tp) {
				t.Fatalf("%v test for %s does not detect", mode, f)
			}
		}
	}
}

func TestPairSpaceTooLarge(t *testing.T) {
	s, err := Accumulator(5) // 11 core inputs -> enhanced needs 22 bits
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EnumeratePairs(s, Enhanced); err == nil {
		t.Fatal("oversized space accepted")
	}
}

// TestQuickNextStateMatchesAddition: the accumulator next-state function
// is addition for random states and operands.
func TestQuickNextStateMatchesAddition(t *testing.T) {
	s, err := Accumulator(4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := rng.Intn(16)
		b := rng.Intn(16)
		cin := rng.Intn(2)
		st := make(State, 4)
		pi := atpg.Pattern{"cin": logic.FromBool(cin == 1)}
		for i := 0; i < 4; i++ {
			st[i] = logic.FromBool(a&(1<<i) != 0)
			pi["b"+string(rune('0'+i))] = logic.FromBool(b&(1<<i) != 0)
		}
		next, err := s.NextState(st, pi)
		if err != nil {
			return false
		}
		sum := a + b + cin
		for i := 0; i < 4; i++ {
			if next[i] != logic.FromBool(sum&(1<<i) != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestEnumLimitError: oversized enumerations surface as a matchable
// *EnumLimitError instead of the panic they used to raise.
func TestEnumLimitError(t *testing.T) {
	nets := make([]string, enumLimit+1)
	for i := range nets {
		nets[i] = fmt.Sprintf("n%d", i)
	}
	_, err := enumPatterns(nets)
	var ele *EnumLimitError
	if !errors.As(err, &ele) {
		t.Fatalf("got %T (%v), want *EnumLimitError", err, err)
	}
	if ele.Nets != enumLimit+1 || ele.Limit != enumLimit {
		t.Fatalf("EnumLimitError fields = %+v", *ele)
	}
	if ps, err := enumPatterns(nets[:3]); err != nil || len(ps) != 8 {
		t.Fatalf("in-limit enumeration: %d patterns, err %v", len(ps), err)
	}
}
