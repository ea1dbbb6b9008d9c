package atpg

import (
	"math/bits"
	"sync"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

// This file is the levelized event-driven grading engine, the repo's one
// bit-parallel OBD engine. The observation is that one OBD fault perturbs
// one net; everything outside the fault site's fanout cone keeps its
// good-machine value, so re-evaluating the whole circuit per fault wastes
// work proportional to circuit size. The engine instead
//
//   - precomputes both good-machine frames once per 64-pair block over
//     the circuit's dense-ID levelization index (logic.Index), storing
//     words in net-ID-indexed arrays instead of string-keyed maps;
//   - per fault, seeds the forced faulty words at the site and pushes
//     only gates whose input words actually changed through level-ordered
//     buckets, so each cone gate is evaluated at most once and gates
//     outside the cone are never touched;
//   - widens packing to word-wide single-rail lanes when a block's
//     patterns are complete: the known rail is constant-1 there, so the
//     dual-rail evaluation collapses to one word per net (Gate.EvalBits
//     instead of Gate.EvalBits3), halving both memory traffic and ALU work;
//   - pools the per-worker scratch (faulty words, dirty marks, level
//     buckets) in a sync.Pool, so grading allocates nothing per fault.
//
// Two reference oracles check it: the scalar DetectsOBD, which the
// property tests in event_test.go pin every lane verdict to, and the
// RUP-checked SAT prover in internal/netcheck. Faults on gates outside
// the circuit's index grade through DetectsOBD directly.

// PairGrader grades OBD faults against a packed two-pattern test set with
// the levelized event-driven engine. It is immutable after construction
// and safe for concurrent use by the Scheduler's workers. Faults on gates
// that are not part of the circuit (synthetic gates used by local
// analyses) are graded pair by pair with the scalar DetectsOBD oracle.
type PairGrader struct {
	c   *logic.Circuit
	idx *logic.Index
	n   int // pairs graded

	// tests holds NewPairGrader's pairs; pair materializes the pairs of a
	// word-built grader on demand (see pairAt).
	tests []TwoPattern
	pair  func(i int) TwoPattern

	blocks   []eventBlock
	complete bool // every block complete: enables single-rail math and fault collapsing

	// nets caches GateNetworks per gate position (valid where netsOK):
	// building the series-parallel trees per graded fault would be the
	// hot path's only allocation.
	nets   []fault.Networks
	netsOK []bool

	scratch sync.Pool
}

// eventBlock holds the good-machine frames of up to 64 vector pairs,
// dense-ID indexed. For complete blocks the known rails are nil: every
// in-range lane is known, so only the value words are carried.
type eventBlock struct {
	n        int
	complete bool
	g1v, g1k []uint64
	g2v, g2k []uint64
}

// eventScratch is one worker's reusable faulty-machine state. Dirty nets
// and queued gates are epoch-stamped so nothing is cleared between
// faults; the level buckets are drained by the propagation loop itself.
type eventScratch struct {
	fv, fk  []uint64 // faulty words by net ID, valid where mark==epoch
	mark    []uint32 // net dirty stamps
	qmark   []uint32 // gate queued stamps
	epoch   uint32
	buckets [][]int32 // gate positions by level, drained ascending
	touched []int32   // dirty net IDs of the current fault
	vbuf    []uint64
	kbuf    []uint64
}

func newEventScratch(x *logic.Index) *eventScratch {
	return &eventScratch{
		fv:      make([]uint64, x.NumNets()),
		fk:      make([]uint64, x.NumNets()),
		mark:    make([]uint32, x.NumNets()),
		qmark:   make([]uint32, len(x.Gates)),
		buckets: make([][]int32, x.MaxLevel+1),
		vbuf:    make([]uint64, 0, 8),
		kbuf:    make([]uint64, 0, 8),
	}
}

// grow widens the gather buffers to hold n input words without the
// append path reallocating (and losing) them.
func (sc *eventScratch) grow(n int) {
	if cap(sc.vbuf) < n {
		sc.vbuf = make([]uint64, 0, n)
		sc.kbuf = make([]uint64, 0, n)
	}
}

// begin opens a new fault simulation epoch.
//
//obdcheck:hotpath
func (sc *eventScratch) begin() {
	sc.epoch++
	if sc.epoch == 0 { // stamp wrap: stale stamps could alias, reset them
		for i := range sc.mark {
			sc.mark[i] = 0
		}
		for i := range sc.qmark {
			sc.qmark[i] = 0
		}
		sc.epoch = 1
	}
	sc.touched = sc.touched[:0]
}

// newGrader is the setup both constructors share: the circuit's index,
// the per-worker scratch pool and the per-gate transistor networks. The
// caller appends the blocks.
func newGrader(c *logic.Circuit, n int) *PairGrader {
	idx := c.Index()
	pg := &PairGrader{c: c, idx: idx, n: n, complete: true}
	pg.scratch.New = func() any { return newEventScratch(idx) }
	pg.nets = make([]fault.Networks, len(idx.Gates))
	pg.netsOK = make([]bool, len(idx.Gates))
	for gi, g := range idx.Gates {
		pg.nets[gi], pg.netsOK[gi] = fault.GateNetworks(g.Type, len(idx.GateIn[gi]))
	}
	return pg
}

// NewPairGrader packs vector pairs into 64-wide blocks over the circuit's
// levelization index and evaluates both good-machine frames per block.
// The circuit must validate (grading entry points check first).
func NewPairGrader(c *logic.Circuit, tests []TwoPattern) *PairGrader {
	pg := newGrader(c, len(tests))
	pg.tests = tests
	for start := 0; start < len(tests); start += 64 {
		end := start + 64
		if end > len(tests) {
			end = len(tests)
		}
		b := packEventBlock(pg.idx, tests[start:end])
		pg.complete = pg.complete && b.complete
		pg.blocks = append(pg.blocks, b)
	}
	return pg
}

// NewPairGraderWords builds a grader over n complete vector pairs supplied
// as packed input words rather than pattern maps — the form a search over
// a structured launch space produces without materializing its pairs.
// Lane k of block b is pair b*64+k; lanes at and past n are ignored. For
// each block, frame1 writes the frame-1 input words into g1 (indexed by
// net ID; only the circuit's input IDs are read). frame2 then writes the
// frame-2 input words into g2 while g1 holds every net's evaluated
// frame-1 word, so a second-frame input may be any first-frame net (a
// launch-on-capture state bit is the word of its flip-flop's D net).
// pair(i) materializes pair i; FirstDetecting and CountDetecting call it
// only for faults on gates outside the circuit, which they grade with
// DetectsOBD. The circuit must validate.
func NewPairGraderWords(c *logic.Circuit, n int, frame1 func(b int, g1 []uint64), frame2 func(b int, g1, g2 []uint64), pair func(i int) TwoPattern) *PairGrader {
	pg := newGrader(c, n)
	pg.pair = pair
	nb, nv := (n+63)/64, pg.idx.NumNets()
	words := make([]uint64, 2*nv*nb)
	pg.blocks = make([]eventBlock, nb)
	for bi := range pg.blocks {
		b := &pg.blocks[bi]
		b.n, b.complete = 64, true
		if rest := n - bi*64; rest < 64 {
			b.n = rest
		}
		b.g1v, b.g2v = words[2*nv*bi:][:nv], words[2*nv*bi+nv:][:nv]
		frame1(bi, b.g1v)
		forwardEval2(pg.idx, b.g1v)
		frame2(bi, b.g1v, b.g2v)
		forwardEval2(pg.idx, b.g2v)
	}
	return pg
}

// pairAt returns pair i of the graded set.
func (pg *PairGrader) pairAt(i int) TwoPattern {
	if pg.pair != nil {
		return pg.pair(i)
	}
	return pg.tests[i]
}

// Complete reports whether every pattern of every pair assigns every
// input — the precondition for single-rail math and for the chain part of
// fault collapsing (equivalence arguments break under X lanes).
func (pg *PairGrader) Complete() bool { return pg.complete }

// packEventBlock packs up to 64 pairs into dense-ID words and evaluates
// the good frames. Complete blocks are evaluated single-rail so their
// beyond-n lanes follow the two-valued semantics of EvalBits; detection
// masks are laneMask-clipped before use, so those lanes never surface.
func packEventBlock(x *logic.Index, pairs []TwoPattern) eventBlock {
	b := eventBlock{n: len(pairs), complete: true}
	nv := x.NumNets()
	b.g1v, b.g1k = make([]uint64, nv), make([]uint64, nv)
	b.g2v, b.g2k = make([]uint64, nv), make([]uint64, nv)
	full := laneMask(len(pairs))
	for k, tp := range pairs {
		bit := uint64(1) << uint(k)
		for _, id := range x.InputIDs {
			name := x.NetNames[id]
			if v, ok := tp.V1[name]; ok && v.IsKnown() {
				b.g1k[id] |= bit
				if v == logic.One {
					b.g1v[id] |= bit
				}
			}
			if v, ok := tp.V2[name]; ok && v.IsKnown() {
				b.g2k[id] |= bit
				if v == logic.One {
					b.g2v[id] |= bit
				}
			}
		}
	}
	for _, id := range x.InputIDs {
		if b.g1k[id]&full != full || b.g2k[id]&full != full {
			b.complete = false
			break
		}
	}
	if b.complete {
		forwardEval2(x, b.g1v)
		forwardEval2(x, b.g2v)
		b.g1k, b.g2k = nil, nil
	} else {
		forwardEval3(x, b.g1v, b.g1k)
		forwardEval3(x, b.g2v, b.g2k)
	}
	return b
}

// forwardEval2 completes a two-valued evaluation in place: val holds the
// input words on entry and every net's word on return.
//
//obdcheck:hotpath
func forwardEval2(x *logic.Index, val []uint64) {
	var buf [8]uint64
	for _, bucket := range x.Levels {
		for _, gi := range bucket {
			ins := x.GateIn[gi]
			vbuf := buf[:0]
			for _, id := range ins {
				vbuf = append(vbuf, val[id])
			}
			val[x.GateOut[gi]] = x.Gates[gi].EvalBits(vbuf)
		}
	}
}

// forwardEval3 is forwardEval2 in dual-rail form.
//
//obdcheck:hotpath
func forwardEval3(x *logic.Index, val, known []uint64) {
	var vb, kb [8]uint64
	for _, bucket := range x.Levels {
		for _, gi := range bucket {
			ins := x.GateIn[gi]
			vbuf, kbuf := vb[:0], kb[:0]
			for _, id := range ins {
				vbuf = append(vbuf, val[id])
				kbuf = append(kbuf, known[id])
			}
			v, k := x.Gates[gi].EvalBits3(vbuf, kbuf)
			out := x.GateOut[gi]
			val[out], known[out] = v, k
		}
	}
}

// Detects reports whether any pair in the set detects the fault.
func (pg *PairGrader) Detects(f fault.OBD) bool {
	return pg.FirstDetecting(f) >= 0
}

// FirstDetecting returns the index of the first detecting pair, or -1.
// Verdicts are bit-identical to a scalar DetectsOBD scan of the pairs.
func (pg *PairGrader) FirstDetecting(f fault.OBD) int {
	gp := pg.idx.GatePos(f.Gate)
	if gp < 0 {
		for ti := 0; ti < pg.n; ti++ {
			if DetectsOBD(pg.c, f, pg.pairAt(ti)) {
				return ti
			}
		}
		return -1
	}
	sc := pg.scratch.Get().(*eventScratch)
	defer pg.scratch.Put(sc)
	for bi := range pg.blocks {
		b := &pg.blocks[bi]
		mask := pg.detectMaskEvent(b, f, gp, sc)
		if mask != 0 {
			return bi*64 + bits.TrailingZeros64(mask)
		}
	}
	return -1
}

// CountDetecting returns how many pairs of the set detect the fault.
func (pg *PairGrader) CountDetecting(f fault.OBD) int {
	gp := pg.idx.GatePos(f.Gate)
	n := 0
	if gp < 0 {
		for ti := 0; ti < pg.n; ti++ {
			if DetectsOBD(pg.c, f, pg.pairAt(ti)) {
				n++
			}
		}
		return n
	}
	sc := pg.scratch.Get().(*eventScratch)
	defer pg.scratch.Put(sc)
	for bi := range pg.blocks {
		n += bits.OnesCount64(pg.detectMaskEvent(&pg.blocks[bi], f, gp, sc))
	}
	return n
}

// detectMaskEvent grades one fault against one block, returning the
// laneMask-clipped bitmask of detecting pairs. The excitation rule is
// DetectsOBD's series-parallel condition evaluated over 64 lanes; the
// faulty frame is then propagated event-driven from the site through its
// fanout cone only.
// The zero-allocation contract (DESIGN.md §11) is enforced statically by
// the marker below and dynamically by TestDetectMaskEventZeroAlloc.
//
//obdcheck:hotpath
func (pg *PairGrader) detectMaskEvent(b *eventBlock, f fault.OBD, gp int, sc *eventScratch) uint64 {
	x := pg.idx
	if !pg.netsOK[gp] {
		return 0
	}
	nets := pg.nets[gp]
	site := int(x.GateOut[gp])
	o1, o2 := b.g1v[site], b.g2v[site]
	ins := x.GateIn[gp]
	sc.grow(len(ins))
	lv2 := sc.vbuf[:0]
	localKnown := ^uint64(0)
	for _, id := range ins {
		lv2 = append(lv2, b.g2v[id])
		if !b.complete {
			localKnown &= b.g1k[id] & b.g2k[id]
		}
	}
	net := nets.PullUp
	driveMask := o2 // pull-up drives when the new value is 1
	if f.Side == fault.PullDown {
		net = nets.PullDown
		driveMask = ^o2
	}
	excited := (o1 ^ o2) & driveMask & localKnown &
		conductBits(net, f.Side, lv2, -1) &^
		conductBits(net, f.Side, lv2, f.Input)
	excited &= laneMask(b.n)
	if excited == 0 {
		return 0
	}

	// Faulty frame 2: the site holds its frame-1 value in the excited
	// lanes (known there: localKnown spans both frames, so o1 is the
	// output of fully known inputs). Propagate only what changes.
	sc.begin()
	nfv := (o2 &^ excited) | (o1 & excited)
	nfk := uint64(0)
	if !b.complete {
		nfk = (b.g2k[site] &^ excited) | (b.g1k[site] & excited)
		if nfv == b.g2v[site] && nfk == b.g2k[site] {
			return 0
		}
	}
	sc.fv[site], sc.fk[site] = nfv, nfk
	sc.mark[site] = sc.epoch
	sc.touched = append(sc.touched, int32(site))
	minLvl := len(sc.buckets)
	for _, gi := range x.Fanouts[site] {
		sc.qmark[gi] = sc.epoch
		lvl := int(x.GateLevel[gi])
		sc.buckets[lvl] = append(sc.buckets[lvl], gi)
		if lvl < minLvl {
			minLvl = lvl
		}
	}
	for lvl := minLvl; lvl < len(sc.buckets); lvl++ {
		bucket := sc.buckets[lvl]
		if len(bucket) == 0 {
			continue
		}
		// The loop appends only to strictly higher levels (gate level >
		// every input driver's level), so ranging the snapshot is safe and
		// each cone gate is evaluated exactly once.
		for _, gi := range bucket {
			g := x.Gates[gi]
			out := int(x.GateOut[gi])
			sc.grow(len(x.GateIn[gi]))
			var v, k uint64
			if b.complete {
				vbuf := sc.vbuf[:0]
				for _, id := range x.GateIn[gi] {
					if sc.mark[id] == sc.epoch {
						vbuf = append(vbuf, sc.fv[id])
					} else {
						vbuf = append(vbuf, b.g2v[id])
					}
				}
				v = g.EvalBits(vbuf)
				if v == b.g2v[out] {
					continue
				}
			} else {
				vbuf, kbuf := sc.vbuf[:0], sc.kbuf[:0]
				for _, id := range x.GateIn[gi] {
					if sc.mark[id] == sc.epoch {
						vbuf = append(vbuf, sc.fv[id])
						kbuf = append(kbuf, sc.fk[id])
					} else {
						vbuf = append(vbuf, b.g2v[id])
						kbuf = append(kbuf, b.g2k[id])
					}
				}
				v, k = g.EvalBits3(vbuf, kbuf)
				if v == b.g2v[out] && k == b.g2k[out] {
					continue
				}
			}
			sc.fv[out], sc.fk[out] = v, k
			sc.mark[out] = sc.epoch
			sc.touched = append(sc.touched, int32(out))
			for _, gj := range x.Fanouts[out] {
				if sc.qmark[gj] == sc.epoch {
					continue
				}
				sc.qmark[gj] = sc.epoch
				sc.buckets[x.GateLevel[gj]] = append(sc.buckets[x.GateLevel[gj]], gj)
			}
		}
		sc.buckets[lvl] = bucket[:0]
	}

	// Only touched POs can differ from the good machine; every other PO
	// carries its good word and contributes zero.
	detected := uint64(0)
	if b.complete {
		for _, id := range sc.touched {
			if x.IsPO[id] {
				detected |= b.g2v[id] ^ sc.fv[id]
			}
		}
	} else {
		for _, id := range sc.touched {
			if x.IsPO[id] {
				detected |= (b.g2v[id] ^ sc.fv[id]) & b.g2k[id] & sc.fk[id]
			}
		}
	}
	return detected & excited
}
