package seq

import (
	"math/rand"
	"reflect"
	"testing"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// randomSeq draws a small DFF-bearing circuit from the primitive-gate
// generator. The s27-class shape (4 PIs, 3 FFs, 10 gates) keeps every
// style's pair space within the exhaustive window, so coverage verdicts
// in these tests are exact.
func randomSeq(t *testing.T, seed int64) *logic.Circuit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 4, Gates: 10, FFs: 3, Primitive: true})
	if err := c.Validate(); err != nil {
		t.Fatalf("seed %d: generated circuit does not validate: %v", seed, err)
	}
	return c
}

func TestFromCircuitShape(t *testing.T) {
	c := randomSeq(t, 39)
	s, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.FFs) != 3 {
		t.Fatalf("scan chain has %d flip-flops, want 3", len(s.FFs))
	}
	// Chain order is the netlist's DFF declaration order.
	for i, g := range c.DFFs() {
		if s.FFs[i].Q != g.Output || s.FFs[i].D != g.Inputs[0] {
			t.Fatalf("chain position %d is %+v, want Q=%s D=%s", i, s.FFs[i], g.Output, g.Inputs[0])
		}
	}
	if s.Core.HasDFF() {
		t.Fatal("core still has flip-flops")
	}
	if len(s.PIs) != 4 {
		t.Fatalf("scan model reports %d primary inputs, want 4", len(s.PIs))
	}
}

func TestFromCircuitCombinational(t *testing.T) {
	c := logic.C17()
	s, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.FFs) != 0 || len(s.PIs) != len(c.Inputs) {
		t.Fatalf("combinational lift: %d FFs, %d PIs", len(s.FFs), len(s.PIs))
	}
}

// TestInsertRoundTrip checks Insert is the inverse of FromCircuit: lifting
// a netlist into the scan model and stitching it back must reproduce the
// structural fingerprint exactly.
func TestInsertRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		c := randomSeq(t, seed)
		s, err := FromCircuit(c)
		if err != nil {
			t.Fatalf("seed %d: FromCircuit: %v", seed, err)
		}
		flat, err := Insert(s.Core, s.FFs)
		if err != nil {
			t.Fatalf("seed %d: Insert: %v", seed, err)
		}
		fp1, err := c.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fp2, err := flat.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp1 != fp2 {
			t.Fatalf("seed %d: FromCircuit/Insert round trip changed the fingerprint", seed)
		}
	}
}

func TestInsertRejectsBrokenChains(t *testing.T) {
	c := randomSeq(t, 39)
	s, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	bad := []FF{{Q: "not-a-net", D: s.FFs[0].D}}
	if _, err := Insert(s.Core, bad); err == nil {
		t.Fatal("Insert accepted a chain whose Q is not a core input")
	} else if _, ok := err.(*ChainError); !ok {
		t.Fatalf("Insert error is %T, want *ChainError", err)
	}
}

func TestUnrollErrors(t *testing.T) {
	c := randomSeq(t, 39)
	s, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unroll(s, 0); err == nil {
		t.Fatal("Unroll accepted 0 frames")
	} else if _, ok := err.(*FrameError); !ok {
		t.Fatalf("Unroll error is %T, want *FrameError", err)
	}
}

// TestUnrollMatchesFrameSimulation is the soundness property of the
// time-frame expansion: for every (initial state, per-frame inputs)
// assignment, evaluating the unrolled combinational circuit must agree
// with clocking the sequential model frame by frame — every frame's
// primary outputs and the final captured state.
func TestUnrollMatchesFrameSimulation(t *testing.T) {
	const frames = 2
	for seed := int64(1); seed <= 10; seed++ {
		c := randomSeq(t, seed)
		s, err := FromCircuit(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		u, err := Unroll(s, frames)
		if err != nil {
			t.Fatalf("seed %d: Unroll: %v", seed, err)
		}
		if u.HasDFF() {
			t.Fatal("unrolled circuit still has flip-flops")
		}
		if err := u.Validate(); err != nil {
			t.Fatalf("seed %d: unrolled circuit does not validate: %v", seed, err)
		}
		rng := rand.New(rand.NewSource(seed * 1000))
		for trial := 0; trial < 64; trial++ {
			// One random stimulus: initial state + per-frame PI vectors.
			st := make(State, len(s.FFs))
			for i := range st {
				st[i] = logic.FromBool(rng.Intn(2) == 1)
			}
			pis := make([]atpg.Pattern, frames+1) // 1-indexed frames
			uAssign := map[string]logic.Value{}
			for i, ff := range s.FFs {
				uAssign[FrameNet(ff.Q, 1)] = st[i]
			}
			for f := 1; f <= frames; f++ {
				pi := make(atpg.Pattern, len(s.PIs))
				for _, in := range s.PIs {
					v := logic.FromBool(rng.Intn(2) == 1)
					pi[in] = v
					uAssign[FrameNet(in, f)] = v
				}
				pis[f] = pi
			}
			uVals := u.Eval(uAssign, nil)
			// Reference: clock the scan model directly.
			cur := st
			for f := 1; f <= frames; f++ {
				assign, err := s.CoreAssign(cur, pis[f])
				if err != nil {
					t.Fatal(err)
				}
				vals := s.Core.Eval(assign, nil)
				for _, po := range s.POs {
					got := uVals[UnrolledNet(s, po, f)]
					if got != vals[po] {
						t.Fatalf("seed %d trial %d: frame %d output %s = %v, unrolled %v",
							seed, trial, f, po, vals[po], got)
					}
				}
				next := make(State, len(s.FFs))
				for i, ff := range s.FFs {
					next[i] = vals[ff.D]
				}
				cur = next
			}
			// The captured final state is the chain image of each Q in a
			// hypothetical frame frames+1.
			for i, ff := range s.FFs {
				got := uVals[UnrolledNet(s, ff.Q, frames+1)]
				if got != cur[i] {
					t.Fatalf("seed %d trial %d: final state bit %d = %v, unrolled %v",
						seed, trial, i, cur[i], got)
				}
			}
		}
	}
}

// TestUnrollGradesLikeTwoFrames pins the unrolled circuit to the
// combinational grading stack: the per-frame OBD universes of Unroll(s,2)
// are copies of the core's (net substitution adds no gates), and grading
// runs on it unchanged.
func TestUnrollGradesLikeTwoFrames(t *testing.T) {
	c := randomSeq(t, 39)
	s, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	u, err := Unroll(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	coreFaults, _ := fault.OBDUniverse(s.Core)
	uFaults, _ := fault.OBDUniverse(u)
	if len(uFaults) != 2*len(coreFaults) {
		t.Fatalf("unrolled universe has %d faults, want 2x%d", len(uFaults), len(coreFaults))
	}
	ts, err := atpg.NewScheduler(0).GenerateOBDTests(u, uFaults, nil)
	if err != nil {
		t.Fatalf("combinational ATPG on the unrolled circuit: %v", err)
	}
	if ts.Coverage.Detected == 0 {
		t.Fatal("no unrolled fault was detectable; expansion is likely wired wrong")
	}
}

// TestStyleOrdering is the coverage-containment property: every LOS or LOC
// pair is also an enhanced-scan pair, so with exhaustive search enhanced
// coverage dominates both per fault. Verified on random sequential
// circuits across worker counts {1, 2, 8}, which must all produce
// bit-identical results.
func TestStyleOrdering(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		c := randomSeq(t, seed)
		s, err := FromCircuit(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		faults, _ := fault.OBDUniverse(s.Core)
		results := map[Style]*Result{}
		for _, style := range []Style{Enhanced, LOS, LOC} {
			var base *Result
			for _, workers := range []int{1, 2, 8} {
				res, err := GenerateTestsOn(atpg.NewScheduler(workers), s, faults, style, nil)
				if err != nil {
					t.Fatalf("seed %d %v workers=%d: %v", seed, style, workers, err)
				}
				if !res.Exact {
					t.Fatalf("seed %d %v: search was not exhaustive; the ordering check needs exact verdicts", seed, style)
				}
				if base == nil {
					base = res
				} else if !reflect.DeepEqual(base, res) {
					t.Fatalf("seed %d %v: workers=%d result differs from workers=1", seed, style, workers)
				}
			}
			results[style] = base
		}
		for i := range faults {
			if results[LOS].Statuses[i] == atpg.Detected && results[Enhanced].Statuses[i] != atpg.Detected {
				t.Fatalf("seed %d fault %s: LOS detects but enhanced does not", seed, faults[i])
			}
			if results[LOC].Statuses[i] == atpg.Detected && results[Enhanced].Statuses[i] != atpg.Detected {
				t.Fatalf("seed %d fault %s: LOC detects but enhanced does not", seed, faults[i])
			}
		}
	}
}

// TestS27StyleCensus pins the s27-class benchmark's exact per-style
// coverage — the numbers recorded in EXPERIMENTS.md and grepped by CI.
func TestS27StyleCensus(t *testing.T) {
	c := randomSeq(t, 39)
	s, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := fault.OBDUniverse(s.Core)
	if len(faults) != 40 {
		t.Fatalf("s27-class OBD universe has %d faults, want 40", len(faults))
	}
	want := map[Style]int{Enhanced: 26, LOS: 25, LOC: 20}
	for _, style := range []Style{Enhanced, LOS, LOC} {
		res, err := GenerateTestsOn(atpg.NewScheduler(0), s, faults, style, nil)
		if err != nil {
			t.Fatalf("%v: %v", style, err)
		}
		if !res.Exact {
			t.Fatalf("%v: search was not exhaustive", style)
		}
		if res.Coverage.Detected != want[style] {
			t.Fatalf("%v coverage %d/40, want %d/40", style, res.Coverage.Detected, want[style])
		}
	}
}

func TestGenerateLOCTestDetects(t *testing.T) {
	c := randomSeq(t, 39)
	s, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := fault.OBDUniverse(s.Core)
	found := false
	for _, f := range faults {
		tp, status, err := Generate(s, f, LOC, nil)
		if err != nil {
			t.Fatal(err)
		}
		if status != atpg.Detected {
			continue
		}
		found = true
		// The returned pair must be deliverable by launch-on-capture: V2's
		// state bits equal the next state captured from V1.
		st2, err := s.NextState(s.stateOf(tp.V1), piOnly(s, tp.V1))
		if err != nil {
			t.Fatal(err)
		}
		for i, ff := range s.FFs {
			if tp.V2[ff.Q] != st2[i] {
				t.Fatalf("fault %s: V2 state bit %s = %v, capture gives %v", f, ff.Q, tp.V2[ff.Q], st2[i])
			}
		}
		if !atpg.DetectsOBD(s.Core, f, *tp) {
			t.Fatalf("fault %s: generated LOC pair does not detect", f)
		}
	}
	if !found {
		t.Fatal("LOC generator detected nothing on the s27-class circuit")
	}
}

func piOnly(s *Circuit, p atpg.Pattern) atpg.Pattern {
	pi := make(atpg.Pattern, len(s.PIs))
	for _, in := range s.PIs {
		pi[in] = p[in]
	}
	return pi
}

// TestParseStyleSpellings locks the CLI and wire spellings.
func TestParseStyleSpellings(t *testing.T) {
	for name, want := range map[string]Style{
		"enhanced": Enhanced, "enhanced-scan": Enhanced,
		"los": LOS, "launch-on-shift": LOS,
		"loc": LOC, "launch-on-capture": LOC,
	} {
		got, err := ParseStyle(name)
		if err != nil || got != want {
			t.Fatalf("ParseStyle(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseStyle("broadside"); err == nil {
		t.Fatal("ParseStyle accepted an unknown name")
	} else if _, ok := err.(*StyleError); !ok {
		t.Fatalf("ParseStyle error is %T, want *StyleError", err)
	}
}
