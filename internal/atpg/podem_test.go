package atpg

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// loadC432 parses the committed c432 netlist.
func loadC432(t testing.TB) *logic.Circuit {
	t.Helper()
	c, err := logic.ParseFile("../../testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testSetDigest is the hex sha256 of a two-pattern set's StringFor lines
// joined by newlines.
func testSetDigest(c *logic.Circuit, tests []TwoPattern) string {
	lines := make([]string, len(tests))
	for i, tp := range tests {
		lines[i] = tp.StringFor(c)
	}
	return linesDigest(lines)
}

// patternSetDigest is the hex sha256 of a pattern set's KeyFor lines
// joined by newlines.
func patternSetDigest(c *logic.Circuit, tests []Pattern) string {
	lines := make([]string, len(tests))
	for i, p := range tests {
		lines[i] = p.KeyFor(c)
	}
	return linesDigest(lines)
}

// linesDigest is the hex sha256 of lines joined by newlines.
func linesDigest(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}

// TestPODEMGoldenC432 pins PODEM's decision order: on c432 in file order
// with one worker and default options, every model's test count and
// backtrack spend, with and without SCOAP guidance, and every model's
// test set itself by digest. A change to the requirement order, the
// D-frontier scan, the backtrace choice or the implication semantics
// moves at least one of these numbers. It also pins the verdicts of
// faults that name nets by string only: a fault list from a second
// parse (foreign gates, same net names) yields the same OBD test set,
// and faults on nets the circuit lacks stay Untestable.
func TestPODEMGoldenC432(t *testing.T) {
	c := loadC432(t)
	obd, _ := fault.OBDUniverse(c)
	tr := fault.TransitionUniverse(c)
	sa := fault.StuckAtUniverse(c)
	s := NewScheduler(1)
	for _, tc := range []struct {
		scoap                bool
		obdTests, obdBT      int
		obdDigest            string
		trTests, trBT        int
		trDigest             string
		saTests, saBT        int
		saDigest             string
		obdCovered, obdTotal int
	}{
		{true, 194, 213, "90f465a08aec93da", 131, 64, "1429be8724fdcea9", 55, 32, "f884b2e31c2ec624", 567, 584},
		{false, 185, 203, "a9be2de32838bdfc", 129, 22, "fe57033ad2abcd97", 53, 11, "877cf4179335a242", 567, 584},
	} {
		opts := func(bt *int) *Options {
			o := DefaultOptions()
			o.DisableSCOAP = !tc.scoap
			o.BacktrackSink = bt
			return o
		}
		var bt int
		ts, err := s.GenerateOBDTests(c, obd, opts(&bt))
		if err != nil {
			t.Fatal(err)
		}
		d := testSetDigest(c, ts.Tests)
		if len(ts.Tests) != tc.obdTests || bt != tc.obdBT || !strings.HasPrefix(d, tc.obdDigest) ||
			ts.Coverage.Detected != tc.obdCovered || ts.Coverage.Total != tc.obdTotal {
			t.Errorf("scoap=%v OBD: %d tests, %d backtracks, coverage %v, digest %.16s; want %d, %d, %d/%d, %s",
				tc.scoap, len(ts.Tests), bt, ts.Coverage, d, tc.obdTests, tc.obdBT, tc.obdCovered, tc.obdTotal, tc.obdDigest)
		}
		bt = 0
		tts, err := s.GenerateTransitionTests(c, tr, opts(&bt))
		if err != nil {
			t.Fatal(err)
		}
		if d := testSetDigest(c, tts.Tests); len(tts.Tests) != tc.trTests || bt != tc.trBT || !strings.HasPrefix(d, tc.trDigest) {
			t.Errorf("scoap=%v transition: %d tests, %d backtracks, digest %.16s; want %d, %d, %s",
				tc.scoap, len(tts.Tests), bt, d, tc.trTests, tc.trBT, tc.trDigest)
		}
		bt = 0
		sts, err := s.GenerateStuckAtTests(c, sa, opts(&bt))
		if err != nil {
			t.Fatal(err)
		}
		if d := patternSetDigest(c, sts.Tests); len(sts.Tests) != tc.saTests || bt != tc.saBT || !strings.HasPrefix(d, tc.saDigest) {
			t.Errorf("scoap=%v stuck-at: %d tests, %d backtracks, digest %.16s; want %d, %d, %s",
				tc.scoap, len(sts.Tests), bt, d, tc.saTests, tc.saBT, tc.saDigest)
		}
	}

	// Foreign gates with the circuit's net names: PODEM works on names,
	// so the test set is the same (validation and dropping take the
	// scalar path for gates outside the index).
	c2 := loadC432(t)
	foreign, _ := fault.OBDUniverse(c2)
	const prefix = 120
	native, err := s.GenerateOBDTests(c, obd[:prefix], nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.GenerateOBDTests(c, foreign[:prefix], nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := testSetDigest(c, native.Tests), testSetDigest(c, other.Tests); a != b || len(native.Tests) == 0 {
		t.Errorf("foreign-gate fault list: %d tests (digest %.16s), native %d (digest %.16s)",
			len(other.Tests), b, len(native.Tests), a)
	}

	// Nets the circuit lacks: a standalone NAND (nets a, b, y) on the
	// full adder (nets A, B, C, ...), and stuck-at and transition faults
	// on an unknown net, are Untestable without a single backtrack.
	fa := cells.FullAdderSumLogic()
	nand, err := fault.GateOBDFaults(logic.Nand, 2)
	if err != nil {
		t.Fatal(err)
	}
	var bt int
	opt := DefaultOptions()
	opt.BacktrackSink = &bt
	for _, f := range nand {
		if _, st := GenerateOBDTest(fa, f, opt); st != Untestable {
			t.Errorf("standalone %v on the full adder: %v, want untestable", f, st)
		}
	}
	for _, v := range []logic.Value{logic.Zero, logic.One} {
		if _, st := GenerateStuckAtTest(c, fault.StuckAt{Net: "nosuchnet", V: v}, opt); st != Untestable {
			t.Errorf("stuck-at-%v on a missing net: %v, want untestable", v, st)
		}
	}
	for _, rising := range []bool{false, true} {
		if _, st := GenerateTransitionTest(c, fault.Transition{Net: "nosuchnet", Rising: rising}, opt); st != Untestable {
			t.Errorf("transition (rising=%v) on a missing net: %v, want untestable", rising, st)
		}
	}
	if bt != 0 {
		t.Errorf("faults on missing nets spent %d backtracks, want 0", bt)
	}
}

// TestPODEMImplyMatchesEval pins incremental implication to the scalar
// evaluator: over random circuits, random decision sequences with
// backtracks, both machines' values after every assign and every undo
// equal Circuit.Eval of the current assignment (the faulty machine with
// the site forced, as the map-keyed search evaluated it).
func TestPODEMImplyMatchesEval(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 1 + rng.Intn(8), Gates: 1 + rng.Intn(40), Primitive: seed%2 == 0})
		pv := newPodemView(c, DefaultOptions())
		x := pv.x
		site := x.NetNames[rng.Intn(x.NumNets())]
		fv := logic.FromBool(rng.Intn(2) == 1)
		e := newPodem(pv, []netReq{{net: site, val: fv.Not()}}, site, fv, true, 0)
		e.sc = pv.scratch.Get().(*podemScratch)
		e.reset()
		assign := Pattern{}
		check := func(step string) {
			t.Helper()
			good := c.Eval(assign, nil)
			faulty := c.Eval(assign, map[string]logic.Value{site: fv})
			for id, name := range x.NetNames {
				if e.sc.good[id] != good[name] || e.sc.faulty[id] != faulty[name] {
					t.Fatalf("seed %d %s: net %s is %v/%v, Eval %v/%v",
						seed, step, name, e.sc.good[id], e.sc.faulty[id], good[name], faulty[name])
				}
			}
		}
		check("reset")
		type decision struct {
			pi   int32
			mark int
		}
		var stack []decision
		for step := 0; step < 60; step++ {
			var free []int32
			for _, id := range x.InputIDs {
				if _, ok := assign[x.NetNames[id]]; !ok {
					free = append(free, id)
				}
			}
			if len(free) > 0 && (len(stack) == 0 || rng.Intn(3) > 0) {
				pi := free[rng.Intn(len(free))]
				v := logic.FromBool(rng.Intn(2) == 1)
				stack = append(stack, decision{pi, e.assign(pi, v)})
				assign[x.NetNames[pi]] = v
				check("assign")
			} else if len(stack) > 0 {
				d := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				e.sc.undo(d.mark)
				delete(assign, x.NetNames[d.pi])
				check("undo")
			}
		}
		pv.scratch.Put(e.sc)
	}
}

// TestPODEMDecisionZeroAlloc is the dynamic half of PODEM's hot-path
// contract: on c432, deciding every primary input in turn (assign and
// imply) and backtracking all of it (undo) allocates nothing once the
// worker's scratch is warm, and the undo restores the state exactly.
func TestPODEMDecisionZeroAlloc(t *testing.T) {
	c := loadC432(t)
	pv := newPodemView(c, DefaultOptions())
	faults, _ := fault.OBDUniverse(c)
	f := faults[len(faults)/2]
	e := newPodem(pv, []netReq{{net: f.Gate.Output, val: logic.One}}, f.Gate.Output, logic.Zero, true, 0)
	e.sc = pv.scratch.Get().(*podemScratch)
	defer pv.scratch.Put(e.sc)
	e.reset()
	good := append([]logic.Value(nil), e.sc.good...)
	faulty := append([]logic.Value(nil), e.sc.faulty...)
	decide := func() {
		first := -1
		for k, id := range pv.x.InputIDs {
			mark := e.assign(id, logic.FromBool(k%3 == 0))
			if first < 0 {
				first = mark
			}
		}
		e.sc.undo(first)
	}
	decide() // warm pass: grows the trail and the level buckets once
	if allocs := testing.AllocsPerRun(50, decide); allocs != 0 {
		t.Fatalf("PODEM decisions allocated %v times per run, want 0", allocs)
	}
	if !slices.Equal(e.sc.good, good) || !slices.Equal(e.sc.faulty, faulty) {
		t.Fatal("undo did not restore the state before the decisions")
	}
}
