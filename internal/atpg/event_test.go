package atpg

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
)

// completeRandomTests builds a test set whose patterns assign every input
// a known value — the precondition for single-rail blocks and collapsing.
func completeRandomTests(rng *rand.Rand, c *logic.Circuit, n int) []TwoPattern {
	mk := func() Pattern {
		p := make(Pattern, len(c.Inputs))
		for _, in := range c.Inputs {
			p[in] = logic.FromBool(rng.Intn(2) == 1)
		}
		return p
	}
	out := make([]TwoPattern, n)
	for i := range out {
		out[i] = TwoPattern{V1: mk(), V2: mk()}
	}
	return out
}

// eventMasks returns a fault's per-block detection masks from the
// event-driven engine (already clipped by detectMaskEvent).
func eventMasks(pg *PairGrader, f fault.OBD) []uint64 {
	gp := pg.idx.GatePos(f.Gate)
	if gp < 0 {
		return nil
	}
	sc := pg.scratch.Get().(*eventScratch)
	defer pg.scratch.Put(sc)
	out := make([]uint64, 0, len(pg.blocks))
	for bi := range pg.blocks {
		out = append(out, pg.detectMaskEvent(&pg.blocks[bi], f, gp, sc))
	}
	return out
}

// TestEventGraderBitIdenticalToSweep: for every fault of the universe, over
// random circuits (primitive and mixed gate sets) × random complete AND
// partial test sets, the event engine's FirstDetecting/CountDetecting equal
// what the same grader reports through its scalar sweep — the DetectsOBD
// scan over every pair that grades faults on gates outside the index. A
// copy of the faulty gate is foreign to the index (positions are keyed by
// pointer) yet names the same nets, so it selects the sweep path.
func TestEventGraderBitIdenticalToSweep(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 2 + rng.Intn(5), Gates: 2 + rng.Intn(24), Primitive: seed%2 == 0})
		faults, _ := fault.OBDUniverse(c)
		for _, complete := range []bool{false, true} {
			var tests []TwoPattern
			if complete {
				tests = completeRandomTests(rng, c, 1+rng.Intn(150))
			} else {
				tests = randomTests(rng, c, 1+rng.Intn(150))
			}
			pg := NewPairGrader(c, tests)
			for _, f := range faults {
				g := *f.Gate
				sweep := f
				sweep.Gate = &g
				if pg.idx.GatePos(sweep.Gate) != -1 || pg.idx.GatePos(f.Gate) < 0 {
					t.Fatalf("seed %d fault %v: copy must be foreign, original indexed", seed, f)
				}
				if ef, sf := pg.FirstDetecting(f), pg.FirstDetecting(sweep); ef != sf {
					t.Fatalf("seed %d complete=%v fault %v: FirstDetecting event %d sweep %d", seed, complete, f, ef, sf)
				}
				if ec, sc := pg.CountDetecting(f), pg.CountDetecting(sweep); ec != sc {
					t.Fatalf("seed %d complete=%v fault %v: CountDetecting event %d sweep %d", seed, complete, f, ec, sc)
				}
			}
		}
	}
}

// TestEventGraderMatchesScalar pins the event engine to the scalar
// DetectsOBD semantics pair by pair: over random circuits (primitive and
// mixed gate sets) × random complete AND partial/X test sets spanning
// several 64-pair blocks, the per-lane mask bits are exactly the pairs
// the scalar grader detects — unassigned and X inputs X-masked, never
// coerced to 0 — and FirstDetecting/CountDetecting equal a scalar scan.
func TestEventGraderMatchesScalar(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 1 + rng.Intn(6), Gates: 2 + rng.Intn(16), Primitive: seed%2 == 0})
		faults, _ := fault.OBDUniverse(c)
		for _, complete := range []bool{false, true} {
			var tests []TwoPattern
			if complete {
				tests = completeRandomTests(rng, c, 1+rng.Intn(150))
			} else {
				tests = randomTests(rng, c, 1+rng.Intn(150))
			}
			pg := NewPairGrader(c, tests)
			if pg.Complete() != complete {
				t.Fatalf("seed %d: Complete() = %v for a complete=%v set", seed, pg.Complete(), complete)
			}
			for _, f := range faults {
				masks := eventMasks(pg, f)
				first, count := -1, 0
				for ti, tp := range tests {
					want := DetectsOBD(c, f, tp)
					got := masks[ti/64]&(1<<uint(ti%64)) != 0
					if got != want {
						t.Fatalf("seed %d complete=%v fault %v pair %d: event %v scalar %v",
							seed, complete, f, ti, got, want)
					}
					if want {
						count++
						if first < 0 {
							first = ti
						}
					}
				}
				if got := pg.FirstDetecting(f); got != first {
					t.Fatalf("seed %d complete=%v fault %v: FirstDetecting %d, scalar %d", seed, complete, f, got, first)
				}
				if got := pg.CountDetecting(f); got != count {
					t.Fatalf("seed %d complete=%v fault %v: CountDetecting %d, scalar %d", seed, complete, f, got, count)
				}
			}
		}
	}
}

// TestGradeOBDCollapseEquivalence: collapsed grading fans class verdicts
// out to exactly the per-site Coverage of the uncollapsed run, the scalar
// reference, for every worker count, on complete and partial sets alike.
func TestGradeOBDCollapseEquivalence(t *testing.T) {
	circuits := 0
	for seed := int64(0); circuits < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Primitive circuits grow inverter chains; mixed ones exercise the
		// structural guards (XOR gates have no OBD networks to collapse).
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 2 + rng.Intn(4), Gates: 3 + rng.Intn(16), Primitive: seed%3 != 0})
		faults, _ := fault.OBDUniverse(c)
		if len(faults) < 2 {
			continue
		}
		circuits++
		for _, complete := range []bool{true, false} {
			var tests []TwoPattern
			if complete {
				tests = completeRandomTests(rng, c, 1+rng.Intn(120))
			} else {
				tests = randomTests(rng, c, 1+rng.Intn(120))
			}
			want := GradeOBD(c, faults, tests)
			for _, w := range sweepWorkers {
				s := NewScheduler(w)
				collapsed := must(s.gradeOBD(context.Background(), c, faults, tests, true))
				plain := must(s.gradeOBD(context.Background(), c, faults, tests, false))
				if !reflect.DeepEqual(collapsed, want) {
					t.Fatalf("seed %d workers %d complete=%v: collapsed %+v, scalar %+v",
						seed, w, complete, collapsed, want)
				}
				if !reflect.DeepEqual(plain, want) {
					t.Fatalf("seed %d workers %d complete=%v: uncollapsed %+v, scalar %+v",
						seed, w, complete, plain, want)
				}
			}
		}
	}
}

// TestCollapseClassesShareVerdicts: under complete test sets, every member
// of a CollapseOBDComplete class has bit-identical per-pair detection
// masks — the equivalence is per pair, which is what licenses grading the
// representative only.
func TestCollapseClassesShareVerdicts(t *testing.T) {
	merges := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 2 + rng.Intn(4), Gates: 3 + rng.Intn(16), Primitive: true})
		faults, _ := fault.OBDUniverse(c)
		tests := completeRandomTests(rng, c, 1+rng.Intn(120))
		pg := NewPairGrader(c, tests)
		if !pg.Complete() {
			t.Fatalf("seed %d: complete test set not recognised as complete", seed)
		}
		for _, cl := range netcheck.CollapseOBDComplete(c, faults) {
			if len(cl) > 1 {
				merges++
			}
			ref := eventMasks(pg, faults[cl[0]])
			for _, fi := range cl[1:] {
				if got := eventMasks(pg, faults[fi]); !reflect.DeepEqual(got, ref) {
					t.Fatalf("seed %d: class member %v masks %x differ from representative %v masks %x",
						seed, faults[fi], got, faults[cl[0]], ref)
				}
			}
		}
	}
	if merges == 0 {
		t.Fatal("no multi-fault class across 40 random circuits; collapsing never exercised")
	}
}

// TestCollapseChainHandcrafted pins the inverter-chain rule on the
// canonical chain NAND → INV → INV → PO: the series NMOS pair of the NAND
// merges with the first inverter's pull-up and the second inverter's
// pull-down, the complementary inverter sides merge with each other, and
// the parallel PMOS defects stay distinct — 4 classes from 8 sites. The
// collapsed exhaustive grade equals the uncollapsed one.
func TestCollapseChainHandcrafted(t *testing.T) {
	c := logic.New("chain")
	for _, in := range []string{"a", "b"} {
		if err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	must(c.AddGate("g1", logic.Nand, "s", "a", "b"))
	must(c.AddGate("h", logic.Inv, "t", "s"))
	must(c.AddGate("k", logic.Inv, "u", "t"))
	c.AddOutput("u")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	faults, _ := fault.OBDUniverse(c)
	if len(faults) != 8 {
		t.Fatalf("universe has %d faults, want 8", len(faults))
	}
	classes := netcheck.CollapseOBDComplete(c, faults)
	if len(classes) != 4 {
		t.Fatalf("got %d classes, want 4: %v", len(classes), classes)
	}
	// Reassemble each class as a set of fault strings for shape checks.
	sets := make([]map[string]bool, len(classes))
	for i, cl := range classes {
		sets[i] = make(map[string]bool, len(cl))
		for _, fi := range cl {
			sets[i][faults[fi].String()] = true
		}
	}
	wantChain := map[string]bool{
		"g1/NMOS@a": true, "g1/NMOS@b": true, "h/PMOS@s": true, "k/NMOS@t": true,
	}
	wantPair := map[string]bool{"h/NMOS@s": true, "k/PMOS@t": true}
	found := 0
	for _, s := range sets {
		if reflect.DeepEqual(s, wantChain) || reflect.DeepEqual(s, wantPair) {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("chain classes not formed as expected: %v", sets)
	}

	// Exhaustive complete pairs: collapsed and uncollapsed grades agree.
	var tests []TwoPattern
	for m1 := 0; m1 < 4; m1++ {
		for m2 := 0; m2 < 4; m2++ {
			tests = append(tests, TwoPattern{
				V1: Pattern{"a": logic.FromBool(m1&1 != 0), "b": logic.FromBool(m1&2 != 0)},
				V2: Pattern{"a": logic.FromBool(m2&1 != 0), "b": logic.FromBool(m2&2 != 0)},
			})
		}
	}
	s := NewScheduler(1)
	collapsed := must(s.gradeOBD(context.Background(), c, faults, tests, true))
	plain := must(s.gradeOBD(context.Background(), c, faults, tests, false))
	if !reflect.DeepEqual(collapsed, plain) {
		t.Fatalf("collapsed %+v, uncollapsed %+v", collapsed, plain)
	}
	if !reflect.DeepEqual(collapsed, GradeOBD(c, faults, tests)) {
		t.Fatalf("collapsed grade diverges from scalar reference")
	}
}

// TestPairGraderCompleteGate: X-bearing or unassigned lanes must demote
// the grader to dual-rail and keep collapsing out of GradeOBD.
func TestPairGraderCompleteGate(t *testing.T) {
	c := logic.C17()
	rng := rand.New(rand.NewSource(7))
	if pg := NewPairGrader(c, completeRandomTests(rng, c, 70)); !pg.Complete() {
		t.Fatal("complete set reported incomplete")
	}
	tests := completeRandomTests(rng, c, 70)
	tests[66].V2[c.Inputs[3]] = logic.X
	if pg := NewPairGrader(c, tests); pg.Complete() {
		t.Fatal("X lane reported complete")
	}
	partial := completeRandomTests(rng, c, 3)
	delete(partial[1].V1, c.Inputs[0])
	if pg := NewPairGrader(c, partial); pg.Complete() {
		t.Fatal("unassigned input reported complete")
	}
}

// TestPairGraderForeignGateFallback: a fault on a gate outside the circuit
// must grade through the scalar oracle: FirstDetecting and CountDetecting
// agree with a DetectsOBD scan of the pairs.
func TestPairGraderForeignGateFallback(t *testing.T) {
	c := logic.C17()
	rng := rand.New(rand.NewSource(11))
	tests := randomTests(rng, c, 40)
	// A synthetic local gate reading circuit nets but not wired into it.
	g := &logic.Gate{Name: "syn", Type: logic.Nand, Inputs: []string{"n1", "n3"}, Output: "n11"}
	f := fault.OBD{Gate: g, Input: 0, Side: fault.PullDown}
	pg := NewPairGrader(c, tests)
	if got := pg.idx.GatePos(g); got != -1 {
		t.Fatalf("foreign gate resolved to position %d", got)
	}
	want, count := -1, 0
	for ti, tp := range tests {
		if DetectsOBD(c, f, tp) {
			if want < 0 {
				want = ti
			}
			count++
		}
	}
	if got := pg.FirstDetecting(f); got != want {
		t.Fatalf("foreign-gate FirstDetecting %d, scalar %d", got, want)
	}
	if got := pg.CountDetecting(f); got != count {
		t.Fatalf("foreign-gate CountDetecting %d, scalar %d", got, count)
	}
}

// TestDetectMaskEventZeroAlloc is the dynamic half of the hot-path
// contract: detectMaskEvent (marked //obdcheck:hotpath, statically
// audited by the hotalloc rule) must allocate nothing per graded fault
// once a worker's scratch is warm.
func TestDetectMaskEventZeroAlloc(t *testing.T) {
	c := logic.C17()
	rng := rand.New(rand.NewSource(7))
	tests := completeRandomTests(rng, c, 130) // three blocks, last partial-width
	pg := NewPairGrader(c, tests)
	faults, _ := fault.OBDUniverse(c)
	if len(faults) == 0 {
		t.Fatal("no faults in the universe")
	}
	sc := pg.scratch.Get().(*eventScratch)
	defer pg.scratch.Put(sc)
	// Warm pass: lets grow() size the gather buffers once.
	for _, f := range faults {
		if gp := pg.idx.GatePos(f.Gate); gp >= 0 {
			for bi := range pg.blocks {
				pg.detectMaskEvent(&pg.blocks[bi], f, gp, sc)
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		for _, f := range faults {
			gp := pg.idx.GatePos(f.Gate)
			if gp < 0 {
				t.Fatalf("fault %v not on an indexed gate", f)
			}
			for bi := range pg.blocks {
				pg.detectMaskEvent(&pg.blocks[bi], f, gp, sc)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("detectMaskEvent allocated %v times per full-universe grade, want 0", allocs)
	}
}

// TestPairGraderWordsMatchesPairs: a grader built from packed input words
// grades exactly like NewPairGrader over the same pairs materialized as
// patterns. Every fault of the universe must get equal FirstDetecting and
// CountDetecting from both, and so must a foreign copy of the fault on
// the words grader, which takes the DetectsOBD fallback through its pair
// materializer (a copy names the same nets as the original, see
// TestEventGraderBitIdenticalToSweep). Some frame-2 inputs
// are copied from a frame-1 net word (how a launch-on-capture state is
// derived), so the words grader must hand frame2 the evaluated frame 1.
func TestPairGraderWordsMatchesPairs(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 2 + rng.Intn(5), Gates: 2 + rng.Intn(24), Primitive: seed%2 == 0})
		x := c.Index()
		n := 1 + rng.Intn(200)
		// src[i] >= 0: frame-2 input i carries frame-1 net src[i].
		src := make([]int, len(c.Inputs))
		for i := range src {
			src[i] = -1
			if rng.Intn(2) == 0 {
				src[i] = rng.Intn(x.NumNets())
			}
		}
		tests := completeRandomTests(rng, c, n)
		for k := range tests {
			g1 := c.Eval(tests[k].V1, nil)
			for i, in := range c.Inputs {
				if src[i] >= 0 {
					tests[k].V2[in] = g1[x.NetNames[src[i]]]
				}
			}
		}
		pack := func(b int, net string, frame func(tp TwoPattern) Pattern) uint64 {
			var w uint64
			for k := 0; k < 64 && b*64+k < n; k++ {
				if frame(tests[b*64+k])[net] == logic.One {
					w |= 1 << uint(k)
				}
			}
			return w
		}
		v1 := func(tp TwoPattern) Pattern { return tp.V1 }
		v2 := func(tp TwoPattern) Pattern { return tp.V2 }
		frame1 := func(b int, g1 []uint64) {
			for i, id := range x.InputIDs {
				g1[id] = pack(b, c.Inputs[i], v1)
			}
		}
		frame2 := func(b int, g1, g2 []uint64) {
			for i, id := range x.InputIDs {
				if src[i] >= 0 {
					g2[id] = g1[src[i]]
				} else {
					g2[id] = pack(b, c.Inputs[i], v2)
				}
			}
		}
		pw := NewPairGraderWords(c, n, frame1, frame2, func(i int) TwoPattern { return tests[i] })
		pp := NewPairGrader(c, tests)
		if !pw.Complete() {
			t.Fatalf("seed %d: words grader reported incomplete", seed)
		}
		faults, _ := fault.OBDUniverse(c)
		for _, f := range faults {
			g := *f.Gate
			foreign := f
			foreign.Gate = &g
			first, count := pp.FirstDetecting(f), pp.CountDetecting(f)
			for _, h := range []fault.OBD{f, foreign} {
				if got := pw.FirstDetecting(h); got != first {
					t.Fatalf("seed %d fault %v: FirstDetecting words %d pairs %d", seed, h, got, first)
				}
				if got := pw.CountDetecting(h); got != count {
					t.Fatalf("seed %d fault %v: CountDetecting words %d pairs %d", seed, h, got, count)
				}
			}
		}
	}
}
