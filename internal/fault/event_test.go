package fault

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gobd/internal/logic"
)

// testPair is one two-pattern of a test set.
type testPair struct{ v1, v2 map[string]logic.Value }

// randomPairs draws n pairs over the circuit's inputs. Complete pairs
// assign every input 0 or 1; partial ones leave about one input in ten
// unassigned and one in ten X.
func randomPairs(rng *rand.Rand, c *logic.Circuit, n int, complete bool) []testPair {
	mk := func() map[string]logic.Value {
		p := make(map[string]logic.Value, len(c.Inputs))
		for _, in := range c.Inputs {
			switch r := rng.Intn(10); {
			case complete || r > 1:
				p[in] = logic.FromBool(rng.Intn(2) == 1)
			case r == 1:
				p[in] = logic.X
			}
		}
		return p
	}
	out := make([]testPair, n)
	for i := range out {
		out[i] = testPair{v1: mk(), v2: mk()}
	}
	return out
}

// graderOf builds a grader over a test set.
func graderOf(c *logic.Circuit, tests []testPair) *PairGrader {
	return NewPairGrader(c, len(tests), func(i int) (v1, v2 map[string]logic.Value) {
		return tests[i].v1, tests[i].v2
	})
}

// scalarDetects is the scalar gross-delay verdict of one pair.
func scalarDetects(c *logic.Circuit, f OBD, tp testPair) bool {
	good, faulty, excited := Respond(c, tp.v1, tp.v2, f)
	return excited && Detects(good, faulty, c.Outputs...)
}

// eventMasks returns a fault's per-block detection masks from the
// event-driven engine (already clipped by detectMaskEvent).
func eventMasks(pg *PairGrader, f OBD) []uint64 {
	gp := pg.idx.GatePos(f.Gate)
	if gp < 0 {
		return nil
	}
	sc := getScratch(pg.idx)
	defer scratchPool.Put(sc)
	out := make([]uint64, 0, len(pg.blocks))
	for bi := range pg.blocks {
		out = append(out, pg.detectMaskEvent(bi, f, gp, sc))
	}
	return out
}

// TestEventGraderMatchesScalar pins the event engine to the scalar
// Respond/Detects semantics pair by pair: over random circuits
// (primitive and mixed gate sets) × random complete AND partial/X test
// sets spanning several 64-pair blocks, the per-lane mask bits are
// exactly the pairs the scalar simulation detects — unassigned and X
// inputs X-masked, never coerced to 0 — and FirstDetecting/
// CountDetecting equal a scalar scan.
func TestEventGraderMatchesScalar(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 1 + rng.Intn(6), Gates: 2 + rng.Intn(16), Primitive: seed%2 == 0})
		faults, _ := OBDUniverse(c)
		for _, complete := range []bool{false, true} {
			tests := randomPairs(rng, c, 1+rng.Intn(150), complete)
			pg := graderOf(c, tests)
			if pg.Complete() != complete {
				t.Fatalf("seed %d: Complete() = %v for a complete=%v set", seed, pg.Complete(), complete)
			}
			for _, f := range faults {
				masks := eventMasks(pg, f)
				first, count := -1, 0
				for ti, tp := range tests {
					want := scalarDetects(c, f, tp)
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

// obsCase is one grader under test: its pair list and the scalar
// verdicts of its circuit's fault universe on every pair.
type obsCase struct {
	c      *logic.Circuit
	pg     *PairGrader
	faults []OBD
	tests  []testPair
	want   [][]bool // want[fi][ti]: does pair ti detect fault fi
}

func newObsCase(c *logic.Circuit, tests []testPair) *obsCase {
	faults, _ := OBDUniverse(c)
	oc := &obsCase{c: c, pg: graderOf(c, tests), faults: faults, tests: slices.Clone(tests),
		want: make([][]bool, len(faults))}
	for fi, f := range faults {
		for _, tp := range tests {
			oc.want[fi] = append(oc.want[fi], scalarDetects(c, f, tp))
		}
	}
	return oc
}

// add appends one pair to the grader and the verdicts.
func (oc *obsCase) add(tp testPair) {
	oc.pg.Append(tp.v1, tp.v2)
	oc.tests = append(oc.tests, tp)
	for fi, f := range oc.faults {
		oc.want[fi] = append(oc.want[fi], scalarDetects(oc.c, f, tp))
	}
}

// reset empties the grader and the verdicts.
func (oc *obsCase) reset() {
	oc.pg.Reset()
	oc.tests = oc.tests[:0]
	for fi := range oc.want {
		oc.want[fi] = oc.want[fi][:0]
	}
}

// site is the net ID of fault fi's site.
func (oc *obsCase) site(fi int) int32 {
	return oc.pg.idx.GateOut[oc.pg.idx.GatePos(oc.faults[fi].Gate)]
}

// check grades fault fi: every block's mask through detectMaskEvent on
// the caller's scratch, every lane of all 64 against the scalar verdict
// (none past the last pair), and FirstDetecting and CountDetecting
// through the pool against the scalar scan.
func (oc *obsCase) check(t *testing.T, tag string, sc *eventScratch, fi int) {
	t.Helper()
	f := oc.faults[fi]
	gp := oc.pg.idx.GatePos(f.Gate)
	first, count := -1, 0
	for bi := range oc.pg.blocks {
		mask := oc.pg.detectMaskEvent(bi, f, gp, sc)
		for k := 0; k < 64; k++ {
			ti := bi*64 + k
			want := ti < len(oc.tests) && oc.want[fi][ti]
			if got := mask&(1<<uint(k)) != 0; got != want {
				t.Fatalf("%s fault %v pair %d: mask lane %v, scalar %v", tag, f, ti, got, want)
			}
			if want {
				count++
				if first < 0 {
					first = ti
				}
			}
		}
	}
	if got := oc.pg.FirstDetecting(f); got != first {
		t.Fatalf("%s fault %v: FirstDetecting %d, scalar %d", tag, f, got, first)
	}
	if got := oc.pg.CountDetecting(f); got != count {
		t.Fatalf("%s fault %v: CountDetecting %d, scalar %d", tag, f, got, count)
	}
}

// TestSiteObservabilityMatchesScalar pins the per-site observability
// memo to the scalar Respond/Detects scan, lane by lane, wherever a
// stale or narrowed memo word could surface. Two random circuits with
// the same input count (so their k-th gates drive the same net ID), over
// complete and X-bearing pair sets, are graded on one explicit scratch:
// each universe in order (a site's faults in a row share the memo), in
// a shuffled order, and interleaved between the two graders site by
// site. Then one grader is appended to and reset, pair by pair, and
// after each change graded starting from the site it was last graded
// on, so a memo that outlived its pair set would be read.
func TestSiteObservabilityMatchesScalar(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opt := logic.RandomOptions{Inputs: 2 + rng.Intn(5), Gates: 4 + rng.Intn(16), Primitive: seed%2 == 0}
		ca := logic.RandomCircuit(rng, opt)
		opt.Gates = 4 + rng.Intn(16)
		cb := logic.RandomCircuit(rng, opt)
		for _, complete := range []bool{true, false} {
			tag := fmt.Sprintf("seed %d complete=%v", seed, complete)
			a := newObsCase(ca, randomPairs(rng, ca, 1+rng.Intn(140), complete))
			b := newObsCase(cb, randomPairs(rng, cb, 1+rng.Intn(140), complete))
			sc := getScratch(a.pg.idx)
			sc.fit(b.pg.idx)

			forward := func(oc *obsCase, tag string) {
				for fi := range oc.faults {
					oc.check(t, tag, sc, fi)
				}
			}
			backward := func(oc *obsCase, tag string) {
				for fi := len(oc.faults) - 1; fi >= 0; fi-- {
					oc.check(t, tag, sc, fi)
				}
			}
			forward(a, tag+" universe")
			for _, fi := range rng.Perm(len(a.faults)) {
				a.check(t, tag+" shuffled", sc, fi)
			}
			bySite := func(oc *obsCase) map[int32][]int {
				m := map[int32][]int{}
				for fi := range oc.faults {
					m[oc.site(fi)] = append(m[oc.site(fi)], fi)
				}
				return m
			}
			sa, sb := bySite(a), bySite(b)
			for id := int32(0); int(id) < max(a.pg.idx.NumNets(), b.pg.idx.NumNets()); id++ {
				fa, fb := sa[id], sb[id]
				for k := 0; k < max(len(fa), len(fb)); k++ {
					if k < len(fa) {
						a.check(t, tag+" interleaved", sc, fa[k])
					}
					if k < len(fb) {
						b.check(t, tag+" interleaved", sc, fb[k])
					}
				}
			}

			// Each grade after a change starts on the site the last one
			// ended on. Round 6 resets first, and round 10 appends a pair
			// with an X input, which turns a complete block partial.
			forward(a, tag+" before append")
			for r := 0; r < 12; r++ {
				if r == 6 {
					a.reset()
				}
				tp := randomPairs(rng, ca, 1, complete)[0]
				if r == 10 {
					tp.v2[ca.Inputs[0]] = logic.X
				}
				a.add(tp)
				if r%2 == 0 {
					backward(a, fmt.Sprintf("%s append %d", tag, r))
				} else {
					forward(a, fmt.Sprintf("%s append %d", tag, r))
				}
			}
			scratchPool.Put(sc)
		}
	}
}

// TestLocalPairMatchesEval: LocalPair reads the site gate's input values
// of a pair out of the packed words exactly as a scalar Eval of the
// pair's two patterns computes them (X where unknown), for gates of the
// circuit and for foreign copies alike. At a detecting pair the local
// pair is one of the fault's excitation pairs.
func TestLocalPairMatchesEval(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 2 + rng.Intn(5), Gates: 2 + rng.Intn(16), Primitive: seed%2 == 0})
		faults, _ := OBDUniverse(c)
		for _, complete := range []bool{false, true} {
			tests := randomPairs(rng, c, 1+rng.Intn(100), complete)
			pg := graderOf(c, tests)
			for _, f := range faults {
				g := *f.Gate
				foreign := f
				foreign.Gate = &g
				for ti, tp := range tests {
					g1, g2 := c.Eval(tp.v1, nil), c.Eval(tp.v2, nil)
					want := Pair{V1: make([]logic.Value, len(g.Inputs)), V2: make([]logic.Value, len(g.Inputs))}
					for k, in := range g.Inputs {
						want.V1[k], want.V2[k] = g1[in], g2[in]
					}
					for _, h := range []OBD{f, foreign} {
						if got := pg.LocalPair(h, ti); !got.Equal(want) {
							t.Fatalf("seed %d fault %v pair %d: LocalPair %v, Eval %v", seed, h, ti, got, want)
						}
					}
				}
				if i := pg.FirstDetecting(f); i >= 0 {
					local, found := pg.LocalPair(f, i), false
					for _, p := range f.ExcitationPairs() {
						found = found || p.Equal(local)
					}
					if !found {
						t.Fatalf("seed %d fault %v: detecting pair %d realizes %v, not an excitation pair", seed, f, i, local)
					}
				}
			}
		}
	}
}

// TestDetectMaskEventZeroAlloc is the dynamic half of the hot-path
// contract: detectMaskEvent (marked //obdcheck:hotpath, statically
// audited by the hotalloc rule) must allocate nothing per graded fault
// once a worker's scratch is warm.
func TestDetectMaskEventZeroAlloc(t *testing.T) {
	c := logic.C17()
	rng := rand.New(rand.NewSource(7))
	pg := graderOf(c, randomPairs(rng, c, 130, true)) // three blocks, last partial-width
	faults, _ := OBDUniverse(c)
	if len(faults) == 0 {
		t.Fatal("no faults in the universe")
	}
	sc := getScratch(pg.idx)
	defer scratchPool.Put(sc)
	// Warm pass: sizes the gather buffers and the observability memo once.
	for _, f := range faults {
		if gp := pg.idx.GatePos(f.Gate); gp >= 0 {
			for bi := range pg.blocks {
				pg.detectMaskEvent(bi, f, gp, sc)
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
				pg.detectMaskEvent(bi, f, gp, sc)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("detectMaskEvent allocated %v times per full-universe grade, want 0", allocs)
	}
}

// sameGrades fails unless two graders over the same n pairs agree on
// Complete and, for every fault, on FirstDetecting, CountDetecting and
// LocalPair (every lane for the circuit's own gates, a sample of lanes
// for foreign ones, whose LocalPair simulates the pair).
func sameGrades(t *testing.T, tag string, want, got *PairGrader, n int, faults []OBD) {
	t.Helper()
	if got.Complete() != want.Complete() {
		t.Fatalf("%s: Complete() = %v, want %v", tag, got.Complete(), want.Complete())
	}
	for _, f := range faults {
		if a, b := got.FirstDetecting(f), want.FirstDetecting(f); a != b {
			t.Fatalf("%s fault %v: FirstDetecting %d, want %d", tag, f, a, b)
		}
		if a, b := got.CountDetecting(f), want.CountDetecting(f); a != b {
			t.Fatalf("%s fault %v: CountDetecting %d, want %d", tag, f, a, b)
		}
		native := want.idx.GatePos(f.Gate) >= 0
		for i := 0; i < n; i++ {
			if !native && i%16 != 0 && i != n-1 {
				continue
			}
			if a, b := got.LocalPair(f, i), want.LocalPair(f, i); !a.Equal(b) {
				t.Fatalf("%s fault %v pair %d: LocalPair %v, want %v", tag, f, i, a, b)
			}
		}
	}
}

// TestAppendMatchesConstructor: a grader grown pair by pair grades
// exactly as one constructed over the same list, at 1, 63, 64, 65 and
// 129 pairs (one lane, a block boundary either side, a third block), for
// faults on the circuit's gates and on foreign copies of some of them. The sets are
// complete, partial with X lanes, or complete up to a last X-bearing
// lane, which turns a complete block partial. The grown grader is one
// grader Reset between sets, so stale words of an earlier set must not
// leak; a grader constructed over a prefix and appended the rest, as a
// resumed generation run seeds its grader, agrees too.
func TestAppendMatchesConstructor(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 2 + rng.Intn(5), Gates: 2 + rng.Intn(14), Primitive: seed%2 == 0})
		own, _ := OBDUniverse(c)
		faults := append([]OBD(nil), own...)
		for i := 0; i < len(own); i += 4 {
			g := *own[i].Gate
			foreign := own[i]
			foreign.Gate = &g
			faults = append(faults, foreign)
		}
		grown := NewPairGrader(c, 0, nil)
		for _, n := range []int{1, 63, 64, 65, 129} {
			for _, shape := range []string{"complete", "partial", "last-x"} {
				tests := randomPairs(rng, c, n, shape != "partial")
				if shape == "last-x" {
					last := &tests[n-1]
					v2 := make(map[string]logic.Value, len(last.v2))
					for k, v := range last.v2 {
						v2[k] = v
					}
					v2[c.Inputs[0]] = logic.X
					last.v2 = v2
				}
				tag := fmt.Sprintf("seed %d n=%d %s", seed, n, shape)
				want := graderOf(c, tests)
				grown.Reset()
				for _, tp := range tests {
					grown.Append(tp.v1, tp.v2)
				}
				sameGrades(t, tag+" appended", want, grown, n, faults)
				h := n / 2
				seeded := graderOf(c, tests[:h])
				for _, tp := range tests[h:] {
					seeded.Append(tp.v1, tp.v2)
				}
				sameGrades(t, tag+" seeded", want, seeded, n, faults)
			}
		}
	}
}

// TestResetAppendZeroAlloc: once warm, emptying a grader and appending
// one complete pair, the cycle of PODEM's pooled validation grader,
// allocates nothing.
func TestResetAppendZeroAlloc(t *testing.T) {
	c := logic.C17()
	tests := randomPairs(rand.New(rand.NewSource(3)), c, 2, true)
	pg := NewPairGrader(c, 0, nil)
	pg.Append(tests[0].v1, tests[0].v2)
	k := 0
	allocs := testing.AllocsPerRun(100, func() {
		k ^= 1
		pg.Reset()
		pg.Append(tests[k].v1, tests[k].v2)
	})
	if allocs != 0 {
		t.Fatalf("Reset and Append allocated %v times per pair, want 0", allocs)
	}
}
