package netcheck_test

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
	"gobd/internal/sat"
)

// witnessTP converts an exact witness into an atpg two-pattern (Pattern
// IS map[string]logic.Value, so the conversion is direct).
func witnessTP(w *netcheck.ExactWitness) atpg.TwoPattern {
	return atpg.TwoPattern{V1: atpg.Pattern(w.V1), V2: atpg.Pattern(w.V2)}
}

// TestExactFullAdder is the headline acceptance check: the exact prover
// must classify ALL 78 pair faults of the full-adder sum logic with
// zero aborts, matching the Section 4.3 census (65 testable, 13
// untestable), every untestable verdict must survive independent
// verification (re-encoded CNFs + RUP checker), and every testable
// witness must replay through atpg.DetectsOBD.
func TestExactFullAdder(t *testing.T) {
	c := cells.FullAdderSumLogic()
	faults, skipped := fault.OBDUniverse(c)
	if len(skipped) != 0 {
		t.Fatalf("full adder has non-primitive gates: %v", skipped)
	}
	if len(faults) != 78 {
		t.Fatalf("OBD universe = %d faults, want 78", len(faults))
	}
	verdicts := netcheck.ProveOBDExactList(c, faults, 0)
	truth := must(atpg.NewScheduler(0).AnalyzeExhaustive(c, faults))
	testable, untestable := 0, 0
	for i, v := range verdicts {
		if v.Aborted {
			t.Fatalf("%s: aborted under an unlimited budget", faults[i])
		}
		if v.Testable != truth.Testable[i] {
			t.Errorf("%s: exact says testable=%v, exhaustive enumeration says %v",
				faults[i], v.Testable, truth.Testable[i])
		}
		if err := netcheck.VerifyExactVerdict(c, faults[i], v); err != nil {
			t.Errorf("%s: verdict failed verification: %v", faults[i], err)
		}
		if v.Testable {
			testable++
			if v.Witness == nil {
				t.Fatalf("%s: testable without witness", faults[i])
			}
			if !atpg.DetectsOBD(c, faults[i], witnessTP(v.Witness)) {
				t.Errorf("%s: witness %s does not replay through DetectsOBD", faults[i], v.Witness.Pair)
			}
		} else {
			untestable++
			if len(v.Pairs) != len(faults[i].ExcitationPairs()) {
				t.Errorf("%s: %d refutations for %d excitation pairs", faults[i], len(v.Pairs), len(faults[i].ExcitationPairs()))
			}
		}
	}
	if testable != 65 || untestable != 13 {
		t.Errorf("census = %d testable / %d untestable, want 65/13", testable, untestable)
	}
}

// TestExactMatchesExhaustive is the completeness property test: on
// random primitive circuits with few inputs, the exact verdicts must
// agree with full two-pattern enumeration, for every worker count of
// the enumeration scheduler (whose results are worker-invariant).
func TestExactMatchesExhaustive(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs:    3 + rng.Intn(3),
			Gates:     5 + rng.Intn(8),
			Primitive: true,
		})
		faults, _ := fault.OBDUniverse(c)
		verdicts := netcheck.ProveOBDExactList(c, faults, 0)
		for _, workers := range []int{1, 2, 8} {
			truth := must(atpg.NewScheduler(workers).AnalyzeExhaustive(c, faults))
			for i, v := range verdicts {
				if v.Aborted {
					t.Fatalf("seed %d: %s aborted under unlimited budget", seed, faults[i])
				}
				if v.Testable != truth.Testable[i] {
					t.Errorf("seed %d workers %d: %s exact=%v exhaustive=%v",
						seed, workers, faults[i], v.Testable, truth.Testable[i])
				}
			}
		}
		for i, v := range verdicts {
			if err := netcheck.VerifyExactVerdict(c, faults[i], v); err != nil {
				t.Errorf("seed %d: %s verification: %v", seed, faults[i], err)
			}
		}
	}
}

// TestPODEMImpliesSATTestable pins the other inclusion: any fault PODEM
// finds a test for must be SAT-testable, and the SAT witness must be a
// working test in its own right.
func TestPODEMImpliesSATTestable(t *testing.T) {
	opt := atpg.DefaultOptions()
	for _, seed := range []int64{29, 31, 37} {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs:    3 + rng.Intn(3),
			Gates:     5 + rng.Intn(8),
			Primitive: true,
		})
		faults, _ := fault.OBDUniverse(c)
		for _, f := range faults {
			tp, st := atpg.GenerateOBDTest(c, f, opt)
			if st != atpg.Detected {
				continue
			}
			ev := netcheck.ProveOBDExact(c, f)
			if !ev.Testable {
				t.Errorf("seed %d: PODEM detects %s (pair %v) but exact prover says untestable",
					seed, f, tp)
				continue
			}
			if !atpg.DetectsOBD(c, f, witnessTP(ev.Witness)) {
				t.Errorf("seed %d: %s SAT witness fails DetectsOBD replay", seed, f)
			}
		}
	}
}

// TestVerifyExactVerdictRejectsTampering checks the verifier is not a
// rubber stamp: corrupting any part of a verdict must fail with a typed
// *ExactProofError.
func TestVerifyExactVerdictRejectsTampering(t *testing.T) {
	c := cells.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(c)
	verdicts := netcheck.ProveOBDExactList(c, faults, 0)
	testableIdx, untestableIdx := -1, -1
	for i, v := range verdicts {
		if v.Testable {
			testableIdx = i
			continue
		}
		// For tampering we need an untestable verdict that carries at
		// least one RUP proof (not only pin conflicts).
		for _, ref := range v.Pairs {
			if !ref.PinConflict {
				untestableIdx = i
				break
			}
		}
	}
	if testableIdx < 0 || untestableIdx < 0 {
		t.Fatalf("full adder lacks a usable verdict pair (testable %d, untestable %d)", testableIdx, untestableIdx)
	}
	wantTyped := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: tampered verdict verified", name)
			return
		}
		var pe *netcheck.ExactProofError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error is %T, want *ExactProofError", name, err)
		}
	}

	// Flip a testable verdict to untestable without refutations.
	v := verdicts[testableIdx]
	v.Testable = false
	v.Witness = nil
	wantTyped("testable→untestable", netcheck.VerifyExactVerdict(c, faults[testableIdx], v))

	// Flip an untestable verdict to testable with no witness.
	v = verdicts[untestableIdx]
	v.Testable = true
	wantTyped("untestable→testable", netcheck.VerifyExactVerdict(c, faults[untestableIdx], v))

	// Corrupt a witness pattern.
	v = verdicts[testableIdx]
	w := *v.Witness
	w.V1 = map[string]logic.Value{}
	w.V2 = map[string]logic.Value{}
	v.Witness = &w
	wantTyped("gutted witness", netcheck.VerifyExactVerdict(c, faults[testableIdx], v))

	// File the witness under another excitation pair of the fault: it
	// still detects the fault, but it does not realize that pair.
	v = verdicts[testableIdx]
	w = *v.Witness
	for _, p := range faults[testableIdx].ExcitationPairs() {
		if p.String() != w.Pair {
			w.Pair = p.String()
			break
		}
	}
	if w.Pair == v.Witness.Pair {
		t.Fatalf("%s has a single excitation pair; pick a fault with two", faults[testableIdx])
	}
	v.Witness = &w
	wantTyped("renamed witness pair", netcheck.VerifyExactVerdict(c, faults[testableIdx], v))

	// A witness that launches no transition (V2 = V1), filed under the
	// local pair it does realize: that pair is not an excitation pair.
	v = verdicts[testableIdx]
	w = *v.Witness
	w.V2 = w.V1
	g1 := c.Eval(w.V1, nil)
	f := faults[testableIdx]
	still := fault.Pair{V1: make([]logic.Value, len(f.Gate.Inputs)), V2: make([]logic.Value, len(f.Gate.Inputs))}
	for k, in := range f.Gate.Inputs {
		still.V1[k], still.V2[k] = g1[in], g1[in]
	}
	w.Pair = still.String()
	v.Witness = &w
	err := netcheck.VerifyExactVerdict(c, f, v)
	wantTyped("non-excitation witness pair", err)
	if pe := (*netcheck.ExactProofError)(nil); errors.As(err, &pe) && !strings.Contains(pe.Msg, "not an excitation pair") {
		t.Errorf("non-excitation witness pair rejected for another reason: %v", err)
	}

	// Corrupt a refutation proof (append a clause over a fresh variable —
	// never RUP).
	v = verdicts[untestableIdx]
	tampered := append([]netcheck.ExactRefutation(nil), v.Pairs...)
	found := false
	for i, ref := range tampered {
		if ref.PinConflict {
			continue
		}
		bogus := append(sat.Proof{{sat.Lit(9999)}}, ref.Proof...)
		tampered[i].Proof = bogus
		found = true
		break
	}
	if !found {
		t.Fatal("untestable verdict has no proof-backed refutation to tamper with")
	}
	v.Pairs = tampered
	wantTyped("corrupted proof", netcheck.VerifyExactVerdict(c, faults[untestableIdx], v))

	// Drop a refutation.
	v = verdicts[untestableIdx]
	v.Pairs = v.Pairs[:len(v.Pairs)-1]
	wantTyped("missing refutation", netcheck.VerifyExactVerdict(c, faults[untestableIdx], v))
}

// TestExactBudgetAborts checks the budget path stays honest: a absurdly
// small conflict budget may abort faults but must never misclassify
// them, and ExactAnalyze must count the three outcomes consistently.
func TestExactBudgetAborts(t *testing.T) {
	c := cells.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(c)
	full := netcheck.ProveOBDExactList(c, faults, 0)
	tiny := netcheck.ProveOBDExactList(c, faults, 1)
	aborted := 0
	for i := range tiny {
		if tiny[i].Aborted {
			aborted++
			if tiny[i].Untestable() {
				t.Errorf("%s: an aborted verdict reads as untestable", faults[i])
			}
			continue
		}
		if tiny[i].Testable != full[i].Testable {
			t.Errorf("%s: budget run classified testable=%v, unlimited run %v",
				faults[i], tiny[i].Testable, full[i].Testable)
		}
	}
	if aborted == 0 {
		t.Fatal("a one-conflict budget aborted nothing; the budget path was not exercised")
	}
	r := netcheck.ExactAnalyze(c, 0)
	if r.Faults != len(faults) || r.Testable+r.Untestable+r.Aborted != r.Faults {
		t.Fatalf("inconsistent report counts: %+v", r)
	}
	if r.Testable != 65 || r.Untestable != 13 || r.Aborted != 0 {
		t.Fatalf("report census = %d/%d/%d, want 65/13/0", r.Testable, r.Untestable, r.Aborted)
	}
}

// TestAnalyzeExactStanza checks the Report wiring: the fault passes
// always hang an ExactReport off Analyze's result under the "sat" JSON
// key, Verdicts is its untestability view, and SkipFaults drops both.
func TestAnalyzeExactStanza(t *testing.T) {
	c := cells.FullAdderSumLogic()
	r := netcheck.Analyze(c, netcheck.Options{})
	if r.Exact == nil {
		t.Fatal("fault passes ran but Report.Exact is nil")
	}
	if r.Exact.Untestable != 13 || r.Exact.Testable != 65 || r.Exact.Aborted != 0 {
		t.Fatalf("exact stanza census = %d/%d/%d, want 65 testable / 13 untestable / 0 aborted",
			r.Exact.Testable, r.Exact.Untestable, r.Exact.Aborted)
	}
	if len(r.Verdicts) != len(r.Exact.Verdicts) {
		t.Fatalf("%d verdicts for %d exact verdicts", len(r.Verdicts), len(r.Exact.Verdicts))
	}
	for i, v := range r.Verdicts {
		ev := r.Exact.Verdicts[i]
		if v.Fault != ev.Fault || v.Untestable != ev.Untestable() || v.Reason != ev.Reason {
			t.Fatalf("verdict %d %+v is not the view of exact verdict %+v", i, v, ev)
		}
	}
	if r2 := netcheck.Analyze(c, netcheck.Options{SkipFaults: true}); r2.Exact != nil || r2.Verdicts != nil {
		t.Fatal("SkipFaults set but the census ran")
	}
}

// TestExactGradeFirstMatchesSATOnly pins both witness sources against
// each other: on random primitive circuits, some with 8–12 inputs where
// random pairs miss faults, the grade-first prover and the SAT-only
// prover agree on Testable and Aborted for every fault, their untestable
// verdicts are identical (refutations and proofs included), and every
// verdict from both runs verifies.
func TestExactGradeFirstMatchesSATOnly(t *testing.T) {
	differ := 0 // testable faults whose two witnesses differ
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := 3 + rng.Intn(3)
		if seed%2 == 0 {
			in = 8 + rng.Intn(5)
		}
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: in, Gates: 6 + rng.Intn(20), Primitive: true})
		faults, _ := fault.OBDUniverse(c)
		first := netcheck.ProveOBDExactList(c, faults, 0)
		only := netcheck.ProveOBDExactListSATOnly(c, faults, 0)
		for i, f := range faults {
			a, b := first[i], only[i]
			if a.Testable != b.Testable || a.Aborted != b.Aborted {
				t.Fatalf("seed %d %s: grade-first testable=%v aborted=%v, SAT-only testable=%v aborted=%v",
					seed, f, a.Testable, a.Aborted, b.Testable, b.Aborted)
			}
			if !a.Testable && !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d %s: untestable verdicts differ:\n%+v\n%+v", seed, f, a, b)
			}
			if a.Testable && !reflect.DeepEqual(a.Witness, b.Witness) {
				differ++
			}
			for _, v := range []netcheck.ExactVerdict{a, b} {
				if err := netcheck.VerifyExactVerdict(c, f, v); err != nil {
					t.Fatalf("seed %d %s: %v", seed, f, err)
				}
			}
		}
	}
	if differ == 0 {
		t.Fatal("every SAT-only witness equals the simulated one; the SAT-only run never took the SAT path")
	}
}

// andTree16 is a 16-input AND tree of NAND/INV pairs: the root rises
// only when every input is 1, which a random pattern does once in 65,536.
func andTree16(t *testing.T) *logic.Circuit {
	t.Helper()
	c := logic.New("and16")
	var level []string
	for i := 0; i < 16; i++ {
		in := fmt.Sprintf("x%d", i)
		if err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
		level = append(level, in)
	}
	for n := 0; len(level) > 1; {
		var next []string
		for i := 0; i < len(level); i += 2 {
			nand, and := fmt.Sprintf("n%d", n), fmt.Sprintf("a%d", n)
			n++
			if _, err := c.AddGate("g"+nand, logic.Nand, nand, level[i], level[i+1]); err != nil {
				t.Fatal(err)
			}
			if _, err := c.AddGate("g"+and, logic.Inv, and, nand); err != nil {
				t.Fatal(err)
			}
			next = append(next, and)
		}
		level = next
	}
	c.AddOutput(level[0])
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestExactSATWitnessBeyondSimulation: on a random-resistant circuit,
// testable faults that no simulated pair detects still come back
// testable, with the SAT path's witness (the SAT-only verdict), and the
// witness verifies.
func TestExactSATWitnessBeyondSimulation(t *testing.T) {
	c := andTree16(t)
	faults, _ := fault.OBDUniverse(c)
	verdicts := netcheck.ProveOBDExactList(c, faults, 0)
	only := netcheck.ProveOBDExactListSATOnly(c, faults, 0)
	escaped := 0
	for i, f := range faults {
		v := verdicts[i]
		if err := netcheck.VerifyExactVerdict(c, f, v); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !v.Testable || netcheck.SimulationDetects(c, f) {
			continue
		}
		escaped++
		if !reflect.DeepEqual(v, only[i]) {
			t.Fatalf("%s escaped simulation but its verdict is not the SAT path's:\n%+v\n%+v", f, v, only[i])
		}
	}
	if escaped == 0 {
		t.Fatal("no testable fault escaped simulation; the SAT witness path was not exercised")
	}
	t.Logf("%d of %d faults testable only through SAT", escaped, len(faults))
}

// TestProveOBDExactMatchesList: a verdict does not depend on the entry
// point or on the other faults of the call.
func TestProveOBDExactMatchesList(t *testing.T) {
	c432, err := logic.ParseFile("../../testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*logic.Circuit{cells.FullAdderSumLogic(), c432} {
		faults, _ := fault.OBDUniverse(c)
		list := netcheck.ProveOBDExactList(c, faults, 0)
		for i, f := range faults {
			if one := netcheck.ProveOBDExact(c, f); !reflect.DeepEqual(one, list[i]) {
				t.Fatalf("%s %s: ProveOBDExact %+v, ProveOBDExactList %+v", c.Name, f, one, list[i])
			}
		}
	}
}

// TestExactSequentialCore: the exact entry points decide a DFF-bearing
// netlist over its combinational core, as Analyze does. s27's 40 faults
// come back 26 testable, 14 untestable, 0 aborted, equal to Analyze's
// exact stanza and to one-fault calls, and every verdict verifies.
func TestExactSequentialCore(t *testing.T) {
	c, err := logic.ParseFile("../../testdata/s27.bench")
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := fault.OBDUniverse(c)
	verdicts := netcheck.ProveOBDExactList(c, faults, 0)
	r := netcheck.ExactAnalyze(c, 0)
	if len(faults) != 40 || r.Faults != 40 || r.Testable != 26 || r.Untestable != 14 || r.Aborted != 0 {
		t.Fatalf("s27 census %d faults, %d/%d/%d, want 40 faults, 26/14/0", r.Faults, r.Testable, r.Untestable, r.Aborted)
	}
	if !reflect.DeepEqual(r.Verdicts, verdicts) {
		t.Fatal("ExactAnalyze and ProveOBDExactList disagree on s27")
	}
	if a := netcheck.Analyze(c, netcheck.Options{}); !reflect.DeepEqual(a.Exact.Verdicts, verdicts) {
		t.Fatal("Analyze's exact stanza differs from ProveOBDExactList on s27")
	}
	for i, f := range faults {
		if one := netcheck.ProveOBDExact(c, f); !reflect.DeepEqual(one, verdicts[i]) {
			t.Fatalf("%s: ProveOBDExact %+v, list %+v", f, one, verdicts[i])
		}
		if err := netcheck.VerifyExactVerdict(c, f, verdicts[i]); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
}

// TestExactGoldenDigests pins the exact census byte for byte: the sha256
// of the JSON of ProveOBDExactList over each circuit's OBD universe, in
// OBDUniverse order. Verdicts, witnesses, refutations and proofs all
// enter the digest, so a change to how instances are built or solved
// that alters any of them fails here. The c432 and s27 pins moved when
// each instance came to be encoded over the fanin closure of its nets
// only: the RUP lemmas in six verdicts (one on c432, five on the s27
// core) name the closure's variable numbers, and nothing else changed.
// The full adder's instances each close over the whole circuit, so its
// pin did not move.
func TestExactGoldenDigests(t *testing.T) {
	load := func(path string) func() *logic.Circuit {
		return func() *logic.Circuit {
			c, err := logic.ParseFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	for _, tc := range []struct {
		name   string
		c      func() *logic.Circuit
		bytes  int
		sha256 string
	}{
		{"c432", load("../../testdata/c432.bench"), 446983, "6d648ce1a292979c9150ffa8f1dd0f5e0f383486eb9f9c4cd4f59a9cb8640049"},
		{"s27 core", load("../../testdata/s27.bench"), 7735, "c5ae5c871e7ac1c3d51ad5f26fa1940f526e572b540ffc8d26602b1cb2ac35d7"},
		{"full adder", cells.FullAdderSumLogic, 10390, "1561e817b21bf68b5ec6bfbae308d0bbc9829bedc0e165fcc76cca1c591bec20"},
	} {
		c := tc.c()
		faults, _ := fault.OBDUniverse(c)
		b, err := json.Marshal(netcheck.ProveOBDExactList(c, faults, 0))
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(b)); len(b) != tc.bytes || sum != tc.sha256 {
			t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, sha256 %s", tc.name, len(b), sum, tc.bytes, tc.sha256)
		}
	}
}

// TestCensusLoadsConeSizedInstances pins what the c432 census loads into
// its solver: the instance count and the variables and clauses summed
// over the instances. Each instance holds only the fanin closure of the
// nets it constrains; whole-circuit frames loaded 7,788 variables and
// 17,972 clauses over the same 39 instances.
func TestCensusLoadsConeSizedInstances(t *testing.T) {
	c, err := logic.ParseFile("../../testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := fault.OBDUniverse(c)
	n, vars, clauses := netcheck.CensusLoads(c, faults)
	if n != 39 || vars != 836 || clauses != 1499 {
		t.Errorf("c432 census loaded %d instances, %d variables and %d clauses; want 39, 836 and 1,499", n, vars, clauses)
	}
}
