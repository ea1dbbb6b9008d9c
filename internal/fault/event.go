package fault

import (
	"math/bits"
	"sync"
	"sync/atomic"

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
//     words in net-ID-indexed arrays instead of string-keyed maps (a
//     grader that grows by Append re-evaluates only its last block);
//   - per fault, decides excitation on the site gate's own words by gate
//     evaluation (OBD.ExcitedBits), so a grader holds no transistor
//     networks and constructing one allocates only its blocks;
//   - per fault site, propagates once per block: it flips the site's
//     frame-2 word in the lanes where the site toggles between the good
//     frames and pushes only gates whose input words actually changed
//     through level-ordered buckets, so each cone gate is evaluated at
//     most once and gates outside the cone are never touched. The lanes
//     that flip a known primary output form the site's observability
//     word. Every OBD fault of a gate delays the same output net, so a
//     fault's mask is its excitation word ANDed with that word, which
//     the worker's scratch keeps for the site's next fault (see siteObs);
//   - widens packing to word-wide single-rail lanes when a block's
//     patterns are complete: the known rail is constant-1 there, so the
//     dual-rail evaluation collapses to one word per net (Gate.EvalBits
//     instead of Gate.EvalBits3), halving both memory traffic and ALU work;
//   - takes the per-worker scratch (faulty words, dirty marks, level
//     buckets, the observability memo) from one package-level sync.Pool
//     that every grader shares, grown to the grader's index when it is
//     taken, so grading allocates nothing per fault and a short-lived
//     one-pair grader reuses the scratch of the graders before it.
//
// Two reference oracles check it: the scalar gross-delay simulation
// (Respond and Detects), which the property tests in event_test.go pin
// every lane verdict to, and the RUP-checked SAT prover in
// internal/netcheck. Faults on gates outside the circuit's index grade
// through the scalar simulation directly. The engine lives here, beside
// ExcitedBits and Respond, so that every layer above fault (atpg's
// graders, seq's scan-style search, netcheck's exact prover) runs the
// same one.

// PairSource returns pair i of a graded set as its two input maps
// (frame 1, frame 2); an input missing from a map, or mapped to X, is
// unknown in that frame.
type PairSource func(i int) (v1, v2 map[string]logic.Value)

// PairGrader grades OBD faults against a packed two-pattern test set with
// the levelized event-driven engine. Grading is safe for concurrent use
// by a scheduler's workers. Append and Reset change the set, so a grader
// must not be graded from another goroutine while it is appended to or
// reset. Faults on gates that are not part of the circuit (synthetic
// gates used by local analyses) are graded pair by pair with the scalar
// simulation, over the constructor's pairs and the appended ones alike.
type PairGrader struct {
	c     *logic.Circuit
	idx   *logic.Index
	n     int        // pairs graded
	src   PairSource // materializes pair i < nsrc for the scalar fallback
	nsrc  int
	added []mapPair // appended pairs: pair nsrc+k is added[k]

	blocks   []eventBlock
	complete bool   // every block complete: enables single-rail math
	version  uint64 // names the current pair set in scratch memos; see siteObs
}

// graderVersions hands out PairGrader versions: every constructor,
// Append and Reset takes a fresh one, so no two pair sets in the process
// share a version.
var graderVersions atomic.Uint64

// mapPair is one appended pair, kept for the scalar fallback.
type mapPair struct{ v1, v2 map[string]logic.Value }

// eventBlock holds the good-machine frames of up to 64 vector pairs,
// dense-ID indexed. Complete blocks carry only the value words: every
// in-range lane is known, so their known rails are never read (nil, or
// buffers a reset grader keeps for reuse).
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
	touched []int32   // dirty net IDs of the current propagation
	vbuf    []uint64
	kbuf    []uint64

	// The observability memo (see siteObs): obs[bi] is the observability
	// word of net obsSite in block bi of the pair set named obsVer, valid
	// where obsOK[bi].
	obsVer  uint64
	obsSite int32
	obs     []uint64
	obsOK   []bool
}

// scratchPool holds the eventScratch of every grader. A scratch carries
// no circuit: getScratch fits it to the index at hand, and because each
// scratch's epoch only grows, a stamp left by one circuit can never read
// as current for the next.
var scratchPool = sync.Pool{New: func() any {
	return &eventScratch{vbuf: make([]uint64, 0, 8), kbuf: make([]uint64, 0, 8)}
}}

// getScratch takes a scratch from the pool, fitted to x. Return it with
// scratchPool.Put.
func getScratch(x *logic.Index) *eventScratch {
	sc := scratchPool.Get().(*eventScratch)
	sc.fit(x)
	return sc
}

// fit grows sc to hold x's nets, gates and levels.
func (sc *eventScratch) fit(x *logic.Index) {
	if n := x.NumNets(); len(sc.mark) < n {
		sc.fv, sc.fk, sc.mark = make([]uint64, n), make([]uint64, n), make([]uint32, n)
	}
	if len(sc.qmark) < len(x.Gates) {
		sc.qmark = make([]uint32, len(x.Gates))
	}
	for len(sc.buckets) <= x.MaxLevel {
		sc.buckets = append(sc.buckets, nil)
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

// keyObs empties the observability memo and keys it to net site of the
// pair set named ver, sized for nb blocks.
func (sc *eventScratch) keyObs(ver uint64, site int32, nb int) {
	if len(sc.obs) < nb {
		sc.obs, sc.obsOK = make([]uint64, nb), make([]bool, nb)
	}
	clear(sc.obsOK)
	sc.obsVer, sc.obsSite = ver, site
}

// begin opens a new propagation epoch.
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

// newGrader is the setup both constructors share: the circuit's index.
// The caller appends the blocks.
func newGrader(c *logic.Circuit, n int, src PairSource) *PairGrader {
	return &PairGrader{c: c, idx: c.Index(), n: n, src: src, nsrc: n, complete: true,
		version: graderVersions.Add(1)}
}

// NewPairGrader packs the n pairs of src into 64-wide blocks over the
// circuit's levelization index and evaluates both good-machine frames per
// block. The circuit must validate (grading entry points check first).
// Pass n = 0 for an empty grader that Append fills.
func NewPairGrader(c *logic.Circuit, n int, src PairSource) *PairGrader {
	pg := newGrader(c, n, src)
	nv := pg.idx.NumNets()
	for start := 0; start < n; start += 64 {
		b := eventBlock{n: min(64, n-start), complete: true}
		b.g1v, b.g2v = make([]uint64, nv), make([]uint64, nv)
		for k := 0; k < b.n; k++ {
			v1, v2 := src(start + k)
			b.pack(pg.idx, k, v1, v2)
		}
		b.eval(pg.idx)
		pg.complete = pg.complete && b.complete
		pg.blocks = append(pg.blocks, b)
	}
	return pg
}

// Append adds (v1, v2) to the set as its last pair: it packs one more
// lane into the last block, or opens a new block, and re-evaluates that
// block's two good frames. Graded verdicts then equal those of a grader
// constructed over the whole list. An input missing from a map, or mapped
// to X, is unknown in that frame; the maps must not change afterwards.
// Append must not run concurrently with grading.
func (pg *PairGrader) Append(v1, v2 map[string]logic.Value) {
	x := pg.idx
	if len(pg.blocks) == 0 || pg.blocks[len(pg.blocks)-1].n == 64 {
		pg.openBlock()
	}
	b := &pg.blocks[len(pg.blocks)-1]
	b.pack(x, b.n, v1, v2)
	pg.complete = pg.complete && b.complete
	b.n++
	pg.n++
	pg.added = append(pg.added, mapPair{v1, v2})
	b.eval(x)
	pg.version = graderVersions.Add(1)
}

// Reset empties the set and keeps the grader's buffers, so the pairs
// appended next reuse the words of the blocks before. Reset must not run
// concurrently with grading.
func (pg *PairGrader) Reset() {
	pg.n, pg.nsrc, pg.src, pg.complete = 0, 0, nil, true
	pg.version = graderVersions.Add(1)
	clear(pg.added)
	pg.added = pg.added[:0]
	pg.blocks = pg.blocks[:0]
}

// openBlock starts an empty complete block after the last one, on the
// words of a block held before a Reset where there is one.
func (pg *PairGrader) openBlock() {
	if len(pg.blocks) < cap(pg.blocks) {
		pg.blocks = pg.blocks[:len(pg.blocks)+1]
	} else {
		pg.blocks = append(pg.blocks, eventBlock{})
	}
	b := &pg.blocks[len(pg.blocks)-1]
	nv := pg.idx.NumNets()
	b.n, b.complete = 0, true
	b.g1v, b.g2v = words(b.g1v, nv), words(b.g2v, nv)
}

// words returns buf resliced to n words, or a new slice when buf is too
// small. The contents are not cleared.
func words(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// pair materializes pair i, for the scalar fallback.
func (pg *PairGrader) pair(i int) (v1, v2 map[string]logic.Value) {
	if k := i - pg.nsrc; k >= 0 {
		return pg.added[k].v1, pg.added[k].v2
	}
	return pg.src(i)
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
// src materializes pair i; FirstDetecting and CountDetecting call it only
// for faults on gates outside the circuit, which they grade with the
// scalar simulation. The circuit must validate.
func NewPairGraderWords(c *logic.Circuit, n int, frame1 func(b int, g1 []uint64), frame2 func(b int, g1, g2 []uint64), src PairSource) *PairGrader {
	pg := newGrader(c, n, src)
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

// detectsScalar grades pair i against f with the scalar gross-delay
// simulation, the path for faults on gates outside the index.
func (pg *PairGrader) detectsScalar(f OBD, i int) bool {
	v1, v2 := pg.pair(i)
	good, faulty, excited := Respond(pg.c, v1, v2, f)
	return excited && Detects(good, faulty, pg.c.Outputs...)
}

// LocalPair returns the values pair i drives onto f's gate inputs in the
// two good frames: the local excitation pair that the pair realizes when
// it excites f (X where an input is unknown). It reads the packed words
// for gates of the circuit and simulates pair i for any other gate.
func (pg *PairGrader) LocalPair(f OBD, i int) Pair {
	n := len(f.Gate.Inputs)
	p := Pair{V1: make([]logic.Value, n), V2: make([]logic.Value, n)}
	gp := pg.idx.GatePos(f.Gate)
	if gp < 0 {
		v1, v2 := pg.pair(i)
		g1, g2 := pg.c.Eval(v1, nil), pg.c.Eval(v2, nil)
		for k, in := range f.Gate.Inputs {
			p.V1[k], p.V2[k] = g1[in], g2[in]
		}
		return p
	}
	b, bit := &pg.blocks[i/64], uint64(1)<<uint(i%64)
	lane := func(val, known []uint64, id int32) logic.Value {
		if !b.complete && known[id]&bit == 0 {
			return logic.X
		}
		return logic.FromBool(val[id]&bit != 0)
	}
	for k, id := range pg.idx.GateIn[gp] {
		p.V1[k], p.V2[k] = lane(b.g1v, b.g1k, id), lane(b.g2v, b.g2k, id)
	}
	return p
}

// Complete reports whether every pattern of every pair assigns every
// input — the precondition for single-rail math and for the chain part of
// fault collapsing (equivalence arguments break under X lanes).
func (pg *PairGrader) Complete() bool { return pg.complete }

// pack writes pair (v1, v2) into lane k of b's input words. A complete
// block carries no known rails; its first lane with an unknown input
// gives it known rails, every earlier lane known, and is packed again.
func (b *eventBlock) pack(x *logic.Index, k int, v1, v2 map[string]logic.Value) {
	if packLane(x, b, k, v1, v2) || !b.complete {
		return
	}
	nv := x.NumNets()
	b.complete = false
	b.g1k, b.g2k = words(b.g1k, nv), words(b.g2k, nv)
	full := laneMask(k)
	for _, id := range x.InputIDs {
		b.g1k[id], b.g2k[id] = full, full
	}
	packLane(x, b, k, v1, v2)
}

// packLane writes pair (v1, v2) into lane k of b's input words: the value
// bits, and the known bits when b is not complete. It reports whether
// both patterns assign every input a known value. Lanes at and past b.n
// are never read, so a complete block's unused lanes may hold anything.
func packLane(x *logic.Index, b *eventBlock, k int, v1, v2 map[string]logic.Value) bool {
	bit := uint64(1) << uint(k)
	k1, k2 := b.g1k, b.g2k
	if b.complete {
		k1, k2 = nil, nil
	}
	complete := true
	for _, id := range x.InputIDs {
		name := x.NetNames[id]
		complete = setLane(b.g1v, k1, id, bit, v1, name) && complete
		complete = setLane(b.g2v, k2, id, bit, v2, name) && complete
	}
	return complete
}

// setLane writes one input's lane bit of one frame, and its known bit
// when known is not nil. It reports whether the pattern assigns the
// input a known value.
func setLane(val, known []uint64, id int32, bit uint64, p map[string]logic.Value, name string) bool {
	v, ok := p[name]
	ok = ok && v.IsKnown()
	val[id] &^= bit
	if ok && v == logic.One {
		val[id] |= bit
	}
	if known != nil {
		known[id] &^= bit
		if ok {
			known[id] |= bit
		}
	}
	return ok
}

// eval evaluates both good frames of b from its input words. Complete
// blocks are evaluated single-rail, so their lanes at and past b.n follow
// the two-valued semantics of EvalBits; detection masks are
// laneMask-clipped before use, so those lanes never surface.
func (b *eventBlock) eval(x *logic.Index) {
	if b.complete {
		forwardEval2(x, b.g1v)
		forwardEval2(x, b.g2v)
	} else {
		forwardEval3(x, b.g1v, b.g1k)
		forwardEval3(x, b.g2v, b.g2k)
	}
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
func (pg *PairGrader) Detects(f OBD) bool {
	return pg.FirstDetecting(f) >= 0
}

// FirstDetecting returns the index of the first detecting pair, or -1.
// Verdicts are bit-identical to a scalar Respond/Detects scan of the
// pairs.
func (pg *PairGrader) FirstDetecting(f OBD) int {
	gp := pg.idx.GatePos(f.Gate)
	if gp < 0 {
		for ti := 0; ti < pg.n; ti++ {
			if pg.detectsScalar(f, ti) {
				return ti
			}
		}
		return -1
	}
	sc := getScratch(pg.idx)
	defer scratchPool.Put(sc)
	for bi := range pg.blocks {
		if mask := pg.detectMaskEvent(bi, f, gp, sc); mask != 0 {
			return bi*64 + bits.TrailingZeros64(mask)
		}
	}
	return -1
}

// CountDetecting returns how many pairs of the set detect the fault.
func (pg *PairGrader) CountDetecting(f OBD) int {
	gp := pg.idx.GatePos(f.Gate)
	n := 0
	if gp < 0 {
		for ti := 0; ti < pg.n; ti++ {
			if pg.detectsScalar(f, ti) {
				n++
			}
		}
		return n
	}
	sc := getScratch(pg.idx)
	defer scratchPool.Put(sc)
	for bi := range pg.blocks {
		n += bits.OnesCount64(pg.detectMaskEvent(bi, f, gp, sc))
	}
	return n
}

// detectMaskEvent grades one fault against block bi, returning the
// laneMask-clipped bitmask of detecting pairs. The excitation rule is
// Respond's, evaluated over 64 lanes by OBD.ExcitedBits on the site
// gate's own words; a lane detects where the fault is excited and the
// site is observable (siteObs).
// The zero-allocation contract (DESIGN.md §11) is enforced statically by
// the marker below and dynamically by TestDetectMaskEventZeroAlloc.
//
//obdcheck:hotpath
func (pg *PairGrader) detectMaskEvent(bi int, f OBD, gp int, sc *eventScratch) uint64 {
	x, b := pg.idx, &pg.blocks[bi]
	site := x.GateOut[gp]
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
	excited := f.ExcitedBits(b.g1v[site], b.g2v[site], lv2) & localKnown & laneMask(b.n)
	if excited == 0 {
		return 0
	}
	return excited & pg.siteObs(bi, site, sc)
}

// siteObs returns the observability word of net site in block bi: the
// in-range lanes where the site's good value toggles between the two
// frames, known in both, and holding its frame-1 value in frame 2 flips
// some primary output whose good and faulty words are both known there.
// An OBD fault forces exactly that value in exactly some of those lanes
// (its excited lanes toggle, and their local inputs are known), and gate
// evaluation is lane-independent, so ANDing the fault's excitation word
// with this word gives the mask that propagating the fault alone would.
// The word is propagated once per site and block, and the scratch keeps
// it for the site's next fault: it is keyed by the grader's version,
// which changes with every Append and Reset, so a memo never outlives
// the pair set it was computed on.
//
//obdcheck:hotpath
func (pg *PairGrader) siteObs(bi int, site int32, sc *eventScratch) uint64 {
	if sc.obsVer != pg.version || sc.obsSite != site {
		sc.keyObs(pg.version, site, len(pg.blocks))
	}
	if !sc.obsOK[bi] {
		sc.obs[bi], sc.obsOK[bi] = pg.observe(&pg.blocks[bi], site, sc), true
	}
	return sc.obs[bi]
}

// observe computes siteObs's word for block b: it flips the site's
// toggle lanes in frame 2 and propagates the change event-driven through
// the site's fanout cone only.
//
//obdcheck:hotpath
func (pg *PairGrader) observe(b *eventBlock, site int32, sc *eventScratch) uint64 {
	x := pg.idx
	toggle := (b.g1v[site] ^ b.g2v[site]) & laneMask(b.n)
	if !b.complete {
		toggle &= b.g1k[site] & b.g2k[site]
	}
	if toggle == 0 || x.IsPO[site] {
		return toggle // a toggling PO is observable in every toggle lane
	}

	// Faulty frame 2: the site holds its frame-1 value in the toggle
	// lanes, which are known in both frames, so its known rail is the
	// good frame-2 one. Propagate only what changes.
	sc.begin()
	sc.fv[site] = b.g2v[site] ^ toggle
	if !b.complete {
		sc.fk[site] = b.g2k[site]
	}
	sc.mark[site] = sc.epoch
	sc.touched = append(sc.touched, site)
	minLvl := x.MaxLevel + 1
	for _, gi := range x.Fanouts[site] {
		sc.qmark[gi] = sc.epoch
		lvl := int(x.GateLevel[gi])
		sc.buckets[lvl] = append(sc.buckets[lvl], gi)
		if lvl < minLvl {
			minLvl = lvl
		}
	}
	for lvl := minLvl; lvl <= x.MaxLevel; lvl++ {
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
	return detected
}

// laneMask returns the mask selecting the first n of 64 lanes.
func laneMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(n) - 1
}
