package seq

import (
	"math/rand"
	"reflect"
	"testing"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// shiftPattern is the launch-on-shift successor of v1 over a flat chain of
// all the circuit's inputs in declaration order: scanIn enters at the
// head and every value moves one input down.
func shiftPattern(c *logic.Circuit, v1 atpg.Pattern, scanIn logic.Value) atpg.Pattern {
	v2 := make(atpg.Pattern, len(c.Inputs))
	prev := scanIn
	for _, in := range c.Inputs {
		v2[in] = prev
		prev = v1[in]
	}
	return v2
}

// isShift reports whether tp's second vector is a one-bit shift of its
// first over the flat input chain.
func isShift(c *logic.Circuit, tp atpg.TwoPattern) bool {
	return reflect.DeepEqual(tp.V2, shiftPattern(c, tp.V1, tp.V2[c.Inputs[0]]))
}

// flatLOSCoverage is the flat-chain launch-on-shift generator that
// seq.LOS over InputChain replaced, reduced to its verdicts: a fault is
// detected when DetectsOBD accepts some (v1, shiftPattern(v1, scanIn))
// over every complete v1 and both scan-in values. The enumeration is
// exhaustive, so the verdicts are exact.
func flatLOSCoverage(c *logic.Circuit, faults []fault.OBD) atpg.Coverage {
	n := len(c.Inputs)
	cov := atpg.Coverage{Total: len(faults)}
	for _, f := range faults {
		detected := false
		for m := 0; m < 1<<uint(n) && !detected; m++ {
			v1 := make(atpg.Pattern, n)
			for i, in := range c.Inputs {
				v1[in] = logic.FromBool(m&(1<<uint(i)) != 0)
			}
			for _, s := range []logic.Value{logic.Zero, logic.One} {
				if atpg.DetectsOBD(c, f, atpg.TwoPattern{V1: v1, V2: shiftPattern(c, v1, s)}) {
					detected = true
					break
				}
			}
		}
		if detected {
			cov.Detected++
		} else {
			cov.Undetected = append(cov.Undetected, f.String())
		}
	}
	return cov
}

// TestInputChainLOSMatchesFlatOracle: LOS over InputChain reaches exactly
// the flat-chain generator's verdicts — equal Coverage, exact — on random
// circuits with 1 to 8 inputs, for workers {1, 2, 8}; and every returned
// pair is a one-bit shift that detects its fault.
func TestInputChainLOSMatchesFlatOracle(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 1 + int(seed%8), Gates: 1 + rng.Intn(16), Primitive: seed%4 != 0})
		s, err := InputChain(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		faults, _ := fault.OBDUniverse(c)
		want := flatLOSCoverage(c, faults)
		for _, workers := range []int{1, 2, 8} {
			res, err := GenerateTestsOn(atpg.NewScheduler(workers), s, faults, LOS, nil)
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, workers, err)
			}
			if !res.Exact || !reflect.DeepEqual(res.Coverage, want) {
				t.Fatalf("seed %d workers=%d: LOS %v exact=%v, flat oracle %v exact",
					seed, workers, res.Coverage, res.Exact, want)
			}
			k := 0
			for i, st := range res.Statuses {
				if st != atpg.Detected {
					continue
				}
				tp := res.Tests[k]
				k++
				if !isShift(c, tp) || !atpg.DetectsOBD(c, faults[i], tp) {
					t.Fatalf("seed %d fault %s: pair %s is not a detecting one-bit shift",
						seed, faults[i], tp.StringFor(c))
				}
			}
		}
	}
}

// TestShiftPattern pins the oracle's shift on a hand case and the LOS
// space of an input chain to it: every LOS pair EnumeratePairs delivers
// is shiftPattern of its first vector.
func TestShiftPattern(t *testing.T) {
	c, err := logic.ParseString("circuit g\ninput a b c\noutput y\nnand g1 n1 a b\nnand g2 y n1 c\n")
	if err != nil {
		t.Fatal(err)
	}
	v1 := atpg.Pattern{"a": logic.One, "b": logic.Zero, "c": logic.One}
	v2 := shiftPattern(c, v1, logic.Zero)
	// Chain order a, b, c: scan-in enters a; a's old value moves to b; etc.
	if v2["a"] != logic.Zero || v2["b"] != logic.One || v2["c"] != logic.Zero {
		t.Fatalf("shifted pattern %v", v2)
	}
	s, err := InputChain(c)
	if err != nil {
		t.Fatal(err)
	}
	space, err := EnumeratePairs(s, LOS)
	if err != nil {
		t.Fatal(err)
	}
	if len(space) != 16 {
		t.Fatalf("LOS space of a 3-input chain has %d pairs, want 16", len(space))
	}
	for _, tp := range space {
		if !isShift(c, tp) {
			t.Fatalf("LOS pair %s is not a one-bit shift", tp.StringFor(c))
		}
	}
}

// TestLOSRespectsShiftConstraint: on NAND2 every LOS test Generate
// returns is a one-bit shift of its first vector and detects its fault.
func TestLOSRespectsShiftConstraint(t *testing.T) {
	c, err := logic.ParseString("circuit g\ninput a b\noutput y\nnand g1 y a b\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := InputChain(c)
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := fault.OBDUniverse(c)
	for _, f := range faults {
		tp, st, err := Generate(s, f, LOS, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st != atpg.Detected {
			continue
		}
		if !isShift(c, *tp) {
			t.Fatalf("%s: LOS pair %s violates shift constraint", f, tp.StringFor(c))
		}
		if !atpg.DetectsOBD(c, f, *tp) {
			t.Fatalf("%s: LOS pair does not detect", f)
		}
	}
}

// TestLOSCoverageMatchesScalarOnFullAdder: the LOS Coverage, graded on the
// event engine, equals a scalar regrade of the returned tests, Undetected
// ordering included, and is the 52/78 of EXPERIMENTS.md Section 5.
func TestLOSCoverageMatchesScalarOnFullAdder(t *testing.T) {
	c := cells.FullAdderSumLogic()
	s, err := InputChain(c)
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := fault.OBDUniverse(c)
	res, err := GenerateTestsOn(atpg.NewScheduler(0), s, faults, LOS, nil)
	if err != nil {
		t.Fatal(err)
	}
	if scalar := atpg.GradeOBD(c, faults, res.Tests); !reflect.DeepEqual(res.Coverage, scalar) {
		t.Fatalf("LOS coverage %+v != scalar regrade %+v", res.Coverage, scalar)
	}
	if res.Coverage.Detected != 52 || res.Coverage.Total != 78 || len(res.Tests) != 52 {
		t.Fatalf("full adder LOS: %v with %d tests, want 52/78 with 52", res.Coverage, len(res.Tests))
	}
}
