package atpg

import (
	"testing"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

// findFault pulls one named fault out of a circuit's OBD universe.
func findFault(t *testing.T, c *logic.Circuit, name string) fault.OBD {
	t.Helper()
	faults, _ := fault.OBDUniverse(c)
	for _, f := range faults {
		if f.String() == name {
			return f
		}
	}
	t.Fatalf("fault %s not in universe", name)
	return fault.OBD{}
}

// TestXMaskRegression is the regression for the silent X→0 coercion:
// the bit-parallel packer used to read unassigned inputs through a plain
// map lookup, turning X into logic 0. For the 2-input NAND with V1=(1,1) and a PARTIAL
// V2 that leaves input a unassigned, the coerced grader saw the pair
// (11,01) and claimed a detection of g1/PMOS@a that the scalar reference
// DetectsOBD — which refuses unknown local values — rejects. The grader
// must now agree with the scalar verdict.
func TestXMaskRegression(t *testing.T) {
	c := mustCircuit(t, "circuit g\ninput a b\noutput y\nnand g1 y a b\n")
	f := findFault(t, c, "g1/PMOS@a")
	v1 := Pattern{"a": logic.One, "b": logic.One}
	v2 := Pattern{"b": logic.One} // a unassigned: reads as X, NOT 0
	tp := TwoPattern{V1: v1, V2: v2}

	if DetectsOBD(c, f, tp) {
		t.Fatal("scalar reference must reject the partial pair")
	}
	g := NewPairGrader(c, []TwoPattern{tp})
	if g.Detects(f) {
		t.Fatal("bit-parallel grader coerced the unassigned input to 0 and claimed a false detection")
	}

	// Sanity: the COMPLETE pair (11,01) legitimately detects the fault in
	// both engines — the X-masking must not simply kill all detections.
	full := TwoPattern{V1: v1, V2: Pattern{"a": logic.Zero, "b": logic.One}}
	if !DetectsOBD(c, f, full) {
		t.Fatal("scalar reference should detect with the complete pair")
	}
	g2 := NewPairGrader(c, []TwoPattern{full})
	if !g2.Detects(f) {
		t.Fatal("bit-parallel grader should detect with the complete pair")
	}
}

// TestPartialPatternCanStillDetect: a pattern with an X on an input that is
// IRRELEVANT to the fault (touches neither the fault gate's local values
// nor the observing outputs) must still count as a detection — X-masking is
// per-lane and per-net, not a blanket rejection of incomplete patterns.
func TestPartialPatternCanStillDetect(t *testing.T) {
	c := mustCircuit(t, "circuit g\ninput a b c\noutput y z\nnand g1 y a b\ninv g2 z c\n")
	f := findFault(t, c, "g1/PMOS@a")
	// c is unassigned in both frames: X reaches only output z, never y.
	tp := TwoPattern{
		V1: Pattern{"a": logic.One, "b": logic.One},
		V2: Pattern{"a": logic.Zero, "b": logic.One},
	}
	if !DetectsOBD(c, f, tp) {
		t.Fatal("scalar reference should detect despite the unassigned input c")
	}
	g := NewPairGrader(c, []TwoPattern{tp})
	if !g.Detects(f) {
		t.Fatal("bit-parallel grader should detect despite the unassigned input c")
	}
}
