package atpg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

func mustCircuit(t *testing.T, src string) *logic.Circuit {
	t.Helper()
	c, err := logic.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const xorNandSrc = `circuit xor4
input a b
output y
nand n1 n1 a b
nand n2 n2 a n1
nand n3 n3 b n1
nand n4 y n2 n3
`

// allPatterns enumerates complete PI assignments.
func allPatterns(c *logic.Circuit) []Pattern {
	n := 1 << len(c.Inputs)
	out := make([]Pattern, 0, n)
	for m := 0; m < n; m++ {
		p := make(Pattern, len(c.Inputs))
		for i, in := range c.Inputs {
			p[in] = logic.FromBool(m&(1<<i) != 0)
		}
		out = append(out, p)
	}
	return out
}

func TestStuckAtSingleNand(t *testing.T) {
	c := mustCircuit(t, "circuit g\ninput a b\noutput y\nnand g1 y a b\n")
	// y stuck-at-0: need y=1 good: any input 0; always observable.
	p, st := GenerateStuckAtTest(c, fault.StuckAt{Net: "y", V: logic.Zero}, nil)
	if st != Detected {
		t.Fatalf("status %v", st)
	}
	if !DetectsStuckAt(c, fault.StuckAt{Net: "y", V: logic.Zero}, p) {
		t.Fatalf("generated pattern %v does not detect", p)
	}
	// a stuck-at-1: need a=0, b=1 to observe through the NAND.
	f := fault.StuckAt{Net: "a", V: logic.One}
	p, st = GenerateStuckAtTest(c, f, nil)
	if st != Detected {
		t.Fatalf("status %v", st)
	}
	if p["a"] != logic.Zero || p["b"] != logic.One {
		t.Fatalf("pattern %v, want a=0 b=1", p)
	}
}

func TestStuckAtUntestableRedundant(t *testing.T) {
	// y = AND(a, !a) is constant 0: y/sa0 is untestable.
	c := mustCircuit(t, "circuit r\ninput a\noutput y\ninv i1 an a\nand g1 y a an\n")
	_, st := GenerateStuckAtTest(c, fault.StuckAt{Net: "y", V: logic.Zero}, nil)
	if st != Untestable {
		t.Fatalf("status %v, want untestable", st)
	}
	// y/sa1 IS testable (any pattern shows 0 vs 1).
	p, st := GenerateStuckAtTest(c, fault.StuckAt{Net: "y", V: logic.One}, nil)
	if st != Detected || !DetectsStuckAt(c, fault.StuckAt{Net: "y", V: logic.One}, p) {
		t.Fatalf("status %v", st)
	}
}

func TestOBDSingleNandAllFaults(t *testing.T) {
	c := mustCircuit(t, "circuit g\ninput a b\noutput y\nnand g1 y a b\n")
	faults, _ := fault.OBDUniverse(c)
	if len(faults) != 4 {
		t.Fatalf("%d faults", len(faults))
	}
	for _, f := range faults {
		tp, st := GenerateOBDTest(c, f, nil)
		if st != Detected {
			t.Fatalf("%s: status %v", f, st)
		}
		if !DetectsOBD(c, f, *tp) {
			t.Fatalf("%s: test %s does not detect", f, tp.StringFor(c))
		}
	}
	// PMOS@a must be tested by exactly (11,01).
	fa := fault.OBD{Gate: c.Gates[0], Input: 0, Side: fault.PullUp}
	tp, _ := GenerateOBDTest(c, fa, nil)
	if got := tp.StringFor(c); got != "(11,01)" {
		t.Fatalf("PMOS@a test %s, want (11,01)", got)
	}
}

func TestOBDThroughLogic(t *testing.T) {
	sched := NewScheduler(0)
	c := mustCircuit(t, xorNandSrc)
	faults, _ := fault.OBDUniverse(c)
	if len(faults) != 16 {
		t.Fatalf("%d faults, want 16", len(faults))
	}
	ts := must(sched.GenerateOBDTests(c, faults, nil))
	for _, r := range ts.Results {
		if r.Status == Aborted {
			t.Fatalf("%s aborted", r.Fault)
		}
	}
	// Cross-check claimed coverage with exhaustive analysis.
	ex := must(sched.AnalyzeExhaustive(c, faults))
	if ts.Coverage.Detected != ex.TestableCount() {
		t.Fatalf("ATPG coverage %v but exhaustively testable %d", ts.Coverage, ex.TestableCount())
	}
}

func TestTransitionSingleNand(t *testing.T) {
	c := mustCircuit(t, "circuit g\ninput a b\noutput y\nnand g1 y a b\n")
	for _, f := range []fault.Transition{
		{Net: "y", Rising: true},
		{Net: "y", Rising: false},
		{Net: "a", Rising: true},
	} {
		tp, st := GenerateTransitionTest(c, f, nil)
		if st != Detected {
			t.Fatalf("%s: status %v", f, st)
		}
		if !DetectsTransition(c, f, *tp) {
			t.Fatalf("%s: test %s does not detect", f, tp.StringFor(c))
		}
	}
}

// TestCoverageGap reproduces the paper's central testing claim: a complete
// transition-fault test set does NOT cover all OBD faults, because it is
// insensitive to which input causes the transition, while the OBD-aware
// generator reaches every testable OBD fault.
func TestCoverageGap(t *testing.T) {
	sched := NewScheduler(0)
	c := mustCircuit(t, "circuit g\ninput a b\noutput y\nnand g1 y a b\n")
	trFaults := fault.TransitionUniverse(c)
	trSet := must(sched.GenerateTransitionTests(c, trFaults, nil))
	if trSet.Coverage.Ratio() != 1 {
		t.Fatalf("transition coverage %v, want 100%%", trSet.Coverage)
	}
	obdFaults, _ := fault.OBDUniverse(c)
	gap := GradeOBD(c, obdFaults, trSet.Tests)
	if gap.Ratio() >= 1 {
		t.Fatalf("expected a coverage gap, transition tests cover OBD %v", gap)
	}
	obdSet := must(sched.GenerateOBDTests(c, obdFaults, nil))
	if obdSet.Coverage.Ratio() != 1 {
		t.Fatalf("OBD ATPG coverage %v, want 100%%", obdSet.Coverage)
	}
	// And the OBD set covers all transition faults too (it is stronger).
	back := must(sched.GradeTransition(c, trFaults, obdSet.Tests))
	if back.Ratio() != 1 {
		t.Fatalf("OBD set should subsume transition faults here, got %v", back)
	}
}

func TestExhaustiveGreedyCover(t *testing.T) {
	c := mustCircuit(t, xorNandSrc)
	faults, _ := fault.OBDUniverse(c)
	ex := must(NewScheduler(0).AnalyzeExhaustive(c, faults))
	cover := ex.GreedyCover()
	if len(cover) == 0 {
		t.Fatal("empty cover")
	}
	cov := GradeOBD(c, faults, cover)
	if cov.Detected != ex.TestableCount() {
		t.Fatalf("greedy cover detects %d, testable %d", cov.Detected, ex.TestableCount())
	}
	if len(cover) > 8 {
		t.Fatalf("greedy cover suspiciously large: %d pairs", len(cover))
	}
}

func TestPatternHelpers(t *testing.T) {
	c := mustCircuit(t, "circuit g\ninput a b\noutput y\nnand g1 y a b\n")
	p := Pattern{"a": logic.One}
	q := p.Filled(c, logic.Zero)
	if q["a"] != logic.One || q["b"] != logic.Zero {
		t.Fatalf("filled %v", q)
	}
	if p.KeyFor(c) != "1X" {
		t.Fatalf("key %q", p.KeyFor(c))
	}
	cl := p.Clone()
	cl["a"] = logic.Zero
	if p["a"] != logic.One {
		t.Fatal("clone aliases source")
	}
	tp := TwoPattern{V1: Pattern{"a": logic.One, "b": logic.One}, V2: Pattern{"a": logic.Zero, "b": logic.One}}
	if tp.StringFor(c) != "(11,01)" {
		t.Fatalf("two-pattern string %q", tp.StringFor(c))
	}
}

func TestStatusStrings(t *testing.T) {
	if Detected.String() != "detected" || Untestable.String() != "untestable" || Aborted.String() != "aborted" {
		t.Fatal("status strings broken")
	}
}

// TestQuickStuckAtMatchesBruteForce: PODEM agrees with exhaustive
// simulation about testability, and its tests are valid.
func TestQuickStuckAtMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 1 + rng.Intn(4), Gates: 1 + rng.Intn(12)})
		pats := allPatterns(c)
		faults := fault.StuckAtUniverse(c)
		// Sample a few faults per circuit to bound runtime.
		for k := 0; k < 4 && k < len(faults); k++ {
			fl := faults[rng.Intn(len(faults))]
			p, st := GenerateStuckAtTest(c, fl, nil)
			bruteDetectable := false
			for _, bp := range pats {
				if DetectsStuckAt(c, fl, bp) {
					bruteDetectable = true
					break
				}
			}
			switch st {
			case Detected:
				if !DetectsStuckAt(c, fl, p) {
					return false
				}
				if !bruteDetectable {
					return false
				}
			case Untestable:
				if bruteDetectable {
					return false
				}
			case Aborted:
				// Allowed, though unexpected at this size.
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOBDMatchesExhaustive: the OBD two-pattern generator agrees with
// exhaustive pair enumeration about testability, and its tests validate
// against the independent fault simulator.
func TestQuickOBDMatchesExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 1 + rng.Intn(4), Gates: 1 + rng.Intn(10), Primitive: true})
		faults, _ := fault.OBDUniverse(c)
		if len(faults) == 0 {
			return true
		}
		ex := must(NewScheduler(0).AnalyzeExhaustive(c, faults))
		for k := 0; k < 4; k++ {
			fi := rng.Intn(len(faults))
			tp, st := GenerateOBDTest(c, faults[fi], nil)
			switch st {
			case Detected:
				if !DetectsOBD(c, faults[fi], *tp) {
					return false
				}
				if !ex.Testable[fi] {
					return false
				}
			case Untestable:
				if ex.Testable[fi] {
					return false
				}
			case Aborted:
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTransitionValid: generated transition tests always detect their
// target per the independent simulator.
func TestQuickTransitionValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 1 + rng.Intn(4), Gates: 1 + rng.Intn(12), Primitive: true})
		faults := fault.TransitionUniverse(c)
		for k := 0; k < 4; k++ {
			fl := faults[rng.Intn(len(faults))]
			tp, st := GenerateTransitionTest(c, fl, nil)
			if st == Detected && !DetectsTransition(c, fl, *tp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOBDSubsetOfTransitionDetection: any pair detecting an OBD fault
// also detects the corresponding transition fault at the gate output —
// OBD excitation is strictly stronger.
func TestQuickOBDSubsetOfTransitionDetection(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 1 + rng.Intn(4), Gates: 1 + rng.Intn(10), Primitive: true})
		faults, _ := fault.OBDUniverse(c)
		if len(faults) == 0 {
			return true
		}
		pats := allPatterns(c)
		for k := 0; k < 6; k++ {
			fl := faults[rng.Intn(len(faults))]
			tp := TwoPattern{V1: pats[rng.Intn(len(pats))], V2: pats[rng.Intn(len(pats))]}
			if DetectsOBD(c, fl, tp) {
				tf := fault.Transition{Net: fl.Gate.Output, Rising: fl.SlowRising()}
				if !DetectsTransition(c, tf, tp) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
