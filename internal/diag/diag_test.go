package diag

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

func buildFullAdderDict(t *testing.T) *Dictionary {
	t.Helper()
	c := cells.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(c)
	ts := must(atpg.NewScheduler(0).GenerateOBDTests(c, faults, nil))
	return Build(c, faults, ts.Tests)
}

func TestSelfDiagnosis(t *testing.T) {
	d := buildFullAdderDict(t)
	for i, f := range d.Faults {
		sig := d.Signature(i)
		if !sig.AnyFail() {
			continue // undetected fault: nothing to diagnose
		}
		cands, dist, err := d.Diagnose(sig)
		if err != nil {
			t.Fatal(err)
		}
		if dist != 0 {
			t.Fatalf("%s: own signature at distance %d", f, dist)
		}
		found := false
		for _, ci := range cands {
			if ci == i {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s not in its own diagnosis class", f)
		}
	}
}

func TestClassesPartitionDetected(t *testing.T) {
	d := buildFullAdderDict(t)
	seen := make(map[int]bool)
	for _, cl := range d.Classes() {
		for _, i := range cl {
			if seen[i] {
				t.Fatalf("fault %d in two classes", i)
			}
			seen[i] = true
			if !d.Signature(i).AnyFail() {
				t.Fatalf("undetected fault %d inside a class", i)
			}
		}
	}
	// Every detected fault must be covered by some class.
	for i := range d.Faults {
		if d.Signature(i).AnyFail() && !seen[i] {
			t.Fatalf("detected fault %d missing from classes", i)
		}
	}
	if u := d.UniquelyDiagnosable(); u == 0 {
		t.Fatal("no uniquely diagnosable faults at all")
	}
}

func TestDiagnoseValidation(t *testing.T) {
	d := buildFullAdderDict(t)
	if _, _, err := d.Diagnose(Response{}); err == nil {
		t.Fatal("short observation accepted")
	}
	bad := make(Response, len(d.Tests))
	for i := range bad {
		bad[i] = []bool{true, true, true} // wrong PO count (full adder has 1)
	}
	if _, _, err := d.Diagnose(bad); err == nil {
		t.Fatal("wrong-width observation accepted")
	}
	// All-pass observation: no candidates, no error.
	pass := make(Response, len(d.Tests))
	for i := range pass {
		pass[i] = make([]bool, 1)
	}
	cands, _, err := d.Diagnose(pass)
	if err != nil || len(cands) != 0 {
		t.Fatalf("all-pass diagnosis: %v %v", cands, err)
	}
}

func TestNoisyDiagnosisNearest(t *testing.T) {
	d := buildFullAdderDict(t)
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for i := range d.Faults {
		sig := d.Signature(i)
		if !sig.AnyFail() {
			continue
		}
		// Flip one random bit of the observation.
		noisy := make(Response, len(sig))
		for r := range sig {
			noisy[r] = append([]bool(nil), sig[r]...)
		}
		ri := rng.Intn(len(noisy))
		bi := rng.Intn(len(noisy[ri]))
		noisy[ri][bi] = !noisy[ri][bi]
		if !noisy.AnyFail() {
			continue
		}
		cands, dist, err := d.Diagnose(noisy)
		if err != nil {
			t.Fatal(err)
		}
		if dist > 1 {
			t.Fatalf("fault %d: nearest distance %d after single flip", i, dist)
		}
		if len(cands) == 0 {
			t.Fatalf("fault %d: no candidates for noisy observation", i)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no noisy cases exercised")
	}
}

func TestResponseHelpers(t *testing.T) {
	a := Response{{true, false}, {false, false}}
	b := Response{{false, false}, {false, true}}
	if a.Distance(b) != 2 {
		t.Fatalf("distance %d", a.Distance(b))
	}
	if a.Key() == b.Key() {
		t.Fatal("distinct responses share a key")
	}
	if !a.AnyFail() {
		t.Fatal("AnyFail broken")
	}
	if (Response{{false}}).AnyFail() {
		t.Fatal("AnyFail false positive")
	}
}

// TestQuickDictionaryConsistency: on random circuits with random tests,
// the stored signature equals a fresh simulation, and exact diagnosis of
// any fault's signature returns a class containing it.
func TestQuickDictionaryConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 2 + rng.Intn(3), Gates: 3 + rng.Intn(12), Primitive: true})
		faults, _ := fault.OBDUniverse(c)
		if len(faults) == 0 {
			return true
		}
		mk := func() atpg.Pattern {
			p := make(atpg.Pattern, len(c.Inputs))
			for _, in := range c.Inputs {
				p[in] = logic.FromBool(rng.Intn(2) == 1)
			}
			return p
		}
		tests := make([]atpg.TwoPattern, 4+rng.Intn(8))
		for i := range tests {
			tests[i] = atpg.TwoPattern{V1: mk(), V2: mk()}
		}
		d := Build(c, faults, tests)
		i := rng.Intn(len(faults))
		fresh := SimulateResponse(c, faults[i], tests)
		if fresh.Key() != d.Signature(i).Key() {
			return false
		}
		if !fresh.AnyFail() {
			return true
		}
		cands, dist, err := d.Diagnose(fresh)
		if err != nil || dist != 0 {
			return false
		}
		for _, ci := range cands {
			if ci == i {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// must unwraps a (value, error) return in tests, panicking on error; the
// panic fails the calling test with the full error in the log.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
