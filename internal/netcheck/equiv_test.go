package netcheck_test

import (
	"strings"
	"testing"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
	"gobd/internal/sat"
)

// TestProveEquivBenchRoundTrip certifies the .bench serializer: a
// circuit formatted and re-parsed must be provably equivalent to the
// original, with a proof the independent checker accepts.
func TestProveEquivBenchRoundTrip(t *testing.T) {
	c := cells.FullAdderSumLogic()
	text, err := logic.FormatBench(c)
	if err != nil {
		t.Fatalf("FormatBench: %v", err)
	}
	back, err := logic.ParseBench(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseBench: %v", err)
	}
	v, err := netcheck.ProveEquiv(c, back)
	if err != nil {
		t.Fatalf("ProveEquiv: %v", err)
	}
	if !v.Equivalent {
		t.Fatalf("round-trip not equivalent; counterexample %v", v.Counterexample)
	}
	if err := netcheck.VerifyEquivProof(c, back, v.Proof); err != nil {
		t.Fatalf("equivalence proof rejected: %v", err)
	}
	// A corrupted proof must not verify.
	bogus := append(sat.Proof{{9999}}, v.Proof...)
	if err := netcheck.VerifyEquivProof(c, back, bogus); err == nil {
		t.Fatal("corrupted equivalence proof accepted")
	}
}

// gate2 builds a one-gate circuit z = t(x, y).
func gate2(name string, t logic.GateType) *logic.Circuit {
	c := logic.New(name)
	if err := c.AddInput("x"); err != nil {
		panic(err)
	}
	if err := c.AddInput("y"); err != nil {
		panic(err)
	}
	if _, err := c.AddGate("g", t, "z", "x", "y"); err != nil {
		panic(err)
	}
	c.AddOutput("z")
	return c
}

// must0 fails the test on error.
func must0(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestProveEquivCounterexample checks the SAT side: two same-interface
// circuits computing different functions must yield a distinguishing
// input assignment under which the outputs actually differ.
func TestProveEquivCounterexample(t *testing.T) {
	a := gate2("and2", logic.And)
	b := gate2("or2", logic.Or)
	v, err := netcheck.ProveEquiv(a, b)
	if err != nil {
		t.Fatalf("ProveEquiv: %v", err)
	}
	if v.Equivalent {
		t.Fatal("AND proved equivalent to OR")
	}
	ga := a.Eval(v.Counterexample, nil)
	gb := b.Eval(v.Counterexample, nil)
	if ga["z"] == gb["z"] {
		t.Fatalf("counterexample %v does not distinguish the circuits", v.Counterexample)
	}
}

// TestProveEquivInterfaceMismatch checks that an ill-posed question
// comes back as a typed *EquivError rather than a bogus verdict.
func TestProveEquivInterfaceMismatch(t *testing.T) {
	a := logic.New("a")
	must0(t, a.AddInput("x"))
	_, err := a.AddGate("g", logic.Inv, "z", "x")
	must0(t, err)
	a.AddOutput("z")
	b := logic.New("b")
	must0(t, b.AddInput("y"))
	_, err = b.AddGate("g", logic.Inv, "z", "y")
	must0(t, err)
	b.AddOutput("z")
	if _, err := netcheck.ProveEquiv(a, b); err == nil {
		t.Fatal("mismatched inputs accepted")
	} else if _, ok := err.(*netcheck.EquivError); !ok {
		t.Fatalf("error is %T, want *EquivError", err)
	}
}

// TestCertifyCollapseOBD turns the structural fault-collapsing argument
// into theorems: every CollapseOBDComplete class member must be provably
// detection-equivalent to its representative, with checkable proofs.
func TestCertifyCollapseOBD(t *testing.T) {
	c := cells.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(c)
	classes := netcheck.CollapseOBDComplete(c, faults)
	certs := netcheck.CertifyCollapseOBD(c, faults)
	merged := 0
	for _, cls := range classes {
		merged += len(cls) - 1
	}
	if len(certs) != merged {
		t.Fatalf("certified %d pairs, classes imply %d", len(certs), merged)
	}
	if merged == 0 {
		t.Fatal("collapsing merged nothing; test is vacuous")
	}
	for _, key := range netcheck.SortedOBDEquivKeys(certs) {
		if !certs[key].Equivalent {
			t.Errorf("%s: class members not detection-equivalent (v1=%v v2=%v)",
				key, certs[key].V1, certs[key].V2)
		}
	}
	// Spot-verify the stored proofs against re-encoded miters.
	verified := 0
	for _, cls := range classes {
		if len(cls) < 2 {
			continue
		}
		rep, mem := faults[cls[0]], faults[cls[1]]
		cert := certs[rep.String()+"≡"+mem.String()]
		if err := netcheck.VerifyOBDEquivProof(c, rep, mem, cert.Proof); err != nil {
			t.Errorf("%s≡%s: proof rejected: %v", rep, mem, err)
		}
		verified++
		if verified >= 4 {
			break
		}
	}
}

// TestProveOBDEquivDistinguishes checks the SAT side of fault
// equivalence: two faults with different detecting-pair sets must yield
// a two-pattern that DetectsOBD confirms detects exactly one of them.
func TestProveOBDEquivDistinguishes(t *testing.T) {
	c := cells.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(c)
	truth := must(atpg.NewScheduler(0).AnalyzeExhaustive(c, faults))
	// Find a testable and an untestable fault: trivially inequivalent.
	ti, ui := -1, -1
	for i, ok := range truth.Testable {
		if ok && ti < 0 {
			ti = i
		}
		if !ok && ui < 0 {
			ui = i
		}
	}
	if ti < 0 || ui < 0 {
		t.Fatal("need one testable and one untestable fault")
	}
	v := netcheck.ProveOBDEquiv(c, faults[ti], faults[ui])
	if v.Equivalent {
		t.Fatal("testable fault proved equivalent to untestable fault")
	}
	tp := atpg.TwoPattern{V1: atpg.Pattern(v.V1), V2: atpg.Pattern(v.V2)}
	d1 := atpg.DetectsOBD(c, faults[ti], tp)
	d2 := atpg.DetectsOBD(c, faults[ui], tp)
	if d1 == d2 {
		t.Fatalf("distinguishing pattern detects both=%v (faults %s / %s)", d1, faults[ti], faults[ui])
	}
}
