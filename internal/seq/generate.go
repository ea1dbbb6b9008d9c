package seq

import (
	"fmt"
	"math/rand"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// Options is the one knob set shared by every style's generator.
type Options struct {
	// SampleBudget bounds the random search used beyond ExhaustiveMaxIn
	// free bits.
	SampleBudget int
	// ExhaustiveMaxIn is the free-bit count (styleBits) up to which the
	// style's pair space is searched exhaustively, making Untestable
	// verdicts exact.
	ExhaustiveMaxIn int
	// Seed drives the random sampling. Batch runs derive a per-fault seed
	// from it, so results are bit-identical for any worker count.
	Seed int64
}

// DefaultOptions returns the settings used by the experiments.
func DefaultOptions() *Options {
	return &Options{SampleBudget: 4096, ExhaustiveMaxIn: 14, Seed: 1}
}

// stateOf reads the present-state bits out of a complete core pattern.
func (s *Circuit) stateOf(p atpg.Pattern) State {
	st := make(State, len(s.FFs))
	for i, ff := range s.FFs {
		st[i] = p[ff.Q]
	}
	return st
}

// buildPair assembles the pair selected by a free-bit assignment: bit(i)
// is the i-th free choice of the style's pair space (see styleBits). It
// returns nil for assignments the style cannot deliver (a LOC launch whose
// captured state is unknown — impossible for complete cores, kept for
// safety).
func buildPair(s *Circuit, style Style, bit func(i int) logic.Value) (*atpg.TwoPattern, error) {
	n := len(s.Core.Inputs)
	v1 := make(atpg.Pattern, n)
	for i, in := range s.Core.Inputs {
		v1[in] = bit(i)
	}
	piOf := func(base int) atpg.Pattern {
		pi := make(atpg.Pattern, len(s.PIs))
		for i, in := range s.PIs {
			pi[in] = bit(base + i)
		}
		return pi
	}
	switch style {
	case Enhanced:
		v2 := make(atpg.Pattern, n)
		for i, in := range s.Core.Inputs {
			v2[in] = bit(n + i)
		}
		return &atpg.TwoPattern{V1: v1, V2: v2}, nil
	case LOS:
		st2 := shiftState(s.stateOf(v1), bit(n))
		v2, err := s.CoreAssign(st2, piOf(n+1))
		if err != nil {
			return nil, err
		}
		return &atpg.TwoPattern{V1: v1, V2: v2}, nil
	case LOC:
		pi1 := make(atpg.Pattern, len(s.PIs))
		for _, in := range s.PIs {
			pi1[in] = v1[in]
		}
		st2, err := s.NextState(s.stateOf(v1), pi1)
		if err != nil {
			return nil, err
		}
		for _, v := range st2 {
			if !v.IsKnown() {
				return nil, nil
			}
		}
		v2, err := s.CoreAssign(st2, piOf(n))
		if err != nil {
			return nil, err
		}
		return &atpg.TwoPattern{V1: v1, V2: v2}, nil
	default:
		return nil, &StyleError{Style: style}
	}
}

// Generate searches the style's pair space for a two-pattern test of one
// core OBD fault and returns the first detecting pair in search order.
// Free-bit spaces up to opt.ExhaustiveMaxIn are searched exhaustively in
// free-bit counter order (Untestable verdicts are then exact); larger
// spaces fall back to opt.SampleBudget random pairs drawn from
// opt.Seed, where a miss is reported as Aborted. Either way the pairs
// are graded 64 to a machine word by the event-driven engine (see
// search). The error return is reserved for structural failures (unknown
// style, a chain that does not fit the core) — search exhaustion is a
// status, not an error.
func Generate(s *Circuit, f fault.OBD, style Style, opt *Options) (*atpg.TwoPattern, atpg.Status, error) {
	if opt == nil {
		opt = DefaultOptions()
	}
	res, err := search(atpg.NewScheduler(1), s, []fault.OBD{f}, style, opt)
	if err != nil {
		return nil, atpg.Errored, err
	}
	if res.Statuses[0] != atpg.Detected {
		return nil, res.Statuses[0], nil
	}
	return &res.Tests[0], atpg.Detected, nil
}

// chunkBlocks is the number of 64-pair blocks one search grader holds:
// the granularity of fault dropping and of the early exit. Larger chunks
// amortize the per-grader setup better but build blocks that faults
// detected by the first pairs never need. Measured with one worker: on
// s27's exhaustive census 16 blocks beat 8 (about 2,460 against 2,160
// ops/s), and on a 300-gate core's sampled regime, where every fault
// builds its own first chunk, 32 blocks ran about 1.7× slower than 16.
const chunkBlocks = 16

// laneBits[i] is free bit i's word over the lanes of a block whose first
// pair index is a multiple of 64: lane j carries bit i of j. Higher free
// bits are constant across such a block.
var laneBits = [...]uint64{
	0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
}

// launchSpace is one style's pair space over a scan model, resolved to
// the core's net IDs. A pair is named by its free bits, numbered as
// buildPair numbers them; a search chunk carries them packed, bits words
// per 64-lane block, bit k of a word belonging to lane k.
type launchSpace struct {
	s     *Circuit
	style Style
	bits  int
	in    []int32 // core inputs, Core.Inputs order: frame 1 is free bits 0..len(in)-1
	q, d  []int32 // per flip-flop: present-state input and next-state net
	pi    []int32 // primary inputs, PIs order
}

// newLaunchSpace resolves the style's space. The launch styles need the
// chain to fit the core as FromCircuit builds it: every core input is
// either one flip-flop's Q or a primary input, and every D is a core net.
func newLaunchSpace(s *Circuit, style Style) (*launchSpace, error) {
	bits, err := styleBits(s, style)
	if err != nil {
		return nil, err
	}
	if err := s.Core.Validate(); err != nil {
		return nil, err
	}
	if ffs := s.Core.DFFs(); len(ffs) > 0 {
		return nil, &ChainError{Msg: fmt.Sprintf("core holds %d flip-flops; lift the netlist with FromCircuit", len(ffs))}
	}
	x := s.Core.Index()
	sp := &launchSpace{s: s, style: style, bits: bits, in: x.InputIDs}
	if style == Enhanced {
		return sp, nil
	}
	roles := make(map[string]int, len(s.Core.Inputs))
	for _, ff := range s.FFs {
		d, ok := x.NetIDs[ff.D]
		if !ok || !s.Core.IsInput(ff.Q) {
			return nil, &ChainError{Msg: fmt.Sprintf("flip-flop %s->%s does not fit the core", ff.D, ff.Q)}
		}
		roles[ff.Q]++
		sp.q = append(sp.q, int32(x.NetIDs[ff.Q]))
		sp.d = append(sp.d, int32(d))
	}
	for _, in := range s.PIs {
		if !s.Core.IsInput(in) {
			return nil, &ChainError{Msg: fmt.Sprintf("primary input %q is not a core input", in)}
		}
		roles[in]++
		sp.pi = append(sp.pi, int32(x.NetIDs[in]))
	}
	for _, in := range s.Core.Inputs {
		if roles[in] != 1 {
			return nil, &ChainError{Msg: fmt.Sprintf("core input %q has %d chain/primary roles, want 1", in, roles[in])}
		}
	}
	return sp, nil
}

// chunk is one search chunk of a launch space: the free-bit words of up
// to chunkBlocks blocks, block b's at words[b*bits:].
type chunk struct {
	sp    *launchSpace
	words []uint64
}

// frame1 writes block b's frame-1 inputs: core input i is free bit i.
func (c *chunk) frame1(b int, g1 []uint64) {
	w := c.words[b*c.sp.bits:]
	for i, id := range c.sp.in {
		g1[id] = w[i]
	}
}

// frame2 writes block b's frame-2 inputs from its free bits and the
// evaluated frame 1.
func (c *chunk) frame2(b int, g1, g2 []uint64) {
	sp := c.sp
	w, n := c.words[b*sp.bits:], len(sp.in)
	switch sp.style {
	case Enhanced:
		for i, id := range sp.in {
			g2[id] = w[n+i]
		}
	case LOS: // one shift: free bit n enters the chain's scan-in end
		prev := w[n]
		for _, q := range sp.q {
			g2[q], prev = prev, g1[q]
		}
		for j, id := range sp.pi {
			g2[id] = w[n+1+j]
		}
	case LOC: // one capture: each flip-flop loads its D net's frame-1 word
		for j, q := range sp.q {
			g2[q] = g1[sp.d[j]]
		}
		for j, id := range sp.pi {
			g2[id] = w[n+j]
		}
	}
}

// pair materializes lane i of the chunk.
func (c *chunk) pair(i int) (*atpg.TwoPattern, error) {
	w, k := c.words[i/64*c.sp.bits:], uint(i%64)
	return buildPair(c.sp.s, c.sp.style, func(j int) logic.Value { return logic.FromBool(w[j]>>k&1 == 1) })
}

// lane is pair in the form the grader's fallback for foreign gates takes.
// An assignment the style cannot deliver (pair returns nil or an error,
// which complete chunks never produce) detects nothing.
func (c *chunk) lane(i int) (v1, v2 map[string]logic.Value) {
	if tp, err := c.pair(i); err == nil && tp != nil {
		return tp.V1, tp.V2
	}
	return nil, nil
}

// count fills the words of the exhaustive regime: lane j of the n pairs
// from base is the free-bit assignment base+j (base is a multiple of 64).
func (c *chunk) count(base, n int) {
	bits := c.sp.bits
	for b := 0; b*64 < n; b++ {
		m0 := base + b*64
		for i := 0; i < bits; i++ {
			switch {
			case i < len(laneBits):
				c.words[b*bits+i] = laneBits[i]
			case m0>>uint(i)&1 == 1:
				c.words[b*bits+i] = ^uint64(0)
			default:
				c.words[b*bits+i] = 0
			}
		}
	}
}

// draws returns the fill of the sampled regime: lane k of a chunk is the
// next draw from rng, bits Intn(2) calls in free-bit order.
func (c *chunk) draws(rng *rand.Rand) func(base, n int) {
	return func(_, n int) {
		bits := c.sp.bits
		w := c.words[:(n+63)/64*bits]
		for i := range w {
			w[i] = 0
		}
		for k := 0; k < n; k++ {
			blk, bit := w[k/64*bits:], uint64(1)<<uint(k%64)
			for i := 0; i < bits; i++ {
				if rng.Intn(2) == 1 {
					blk[i] |= bit
				}
			}
		}
	}
}

// scan walks total pairs of a launch space in chunks of chunkBlocks
// blocks. fill writes the free-bit words of the n pairs from index base;
// every fault still undetected is graded against them on the event
// engine, and a detected fault drops out with its first detecting pair,
// materialized into found (or the failure into errs).
func (c *chunk) scan(sched *atpg.Scheduler, faults []fault.OBD, found []*atpg.TwoPattern, errs []error, total int, fill func(base, n int)) {
	live := make([]int, len(faults))
	for i := range live {
		live[i] = i
	}
	frame1, frame2, lane := c.frame1, c.frame2, c.lane // bound once: each method value allocates
	for base := 0; base < total && len(live) > 0; base += chunkBlocks * 64 {
		n := total - base
		if n > chunkBlocks*64 {
			n = chunkBlocks * 64
		}
		fill(base, n)
		pg := fault.NewPairGraderWords(c.sp.s.Core, n, frame1, frame2, lane)
		sched.ForEach(len(live), func(k int) {
			i := live[k]
			if j := pg.FirstDetecting(faults[i]); j >= 0 {
				found[i], errs[i] = c.pair(j)
			}
		})
		kept := live[:0]
		for _, i := range live {
			if found[i] == nil && errs[i] == nil {
				kept = append(kept, i)
			}
		}
		live = kept
	}
}

// search is the one scan-style test search: Generate, GenerateTestsOn
// and StyleCoverage all run it. Each fault gets the first pair of the
// style's launch space, in search order, that detects it. Spaces of up
// to opt.ExhaustiveMaxIn free bits (and at most 30) are walked in the
// exhaustive regime: the free-bit counter m = 0, 1, … 2^bits-1, one space
// shared by all faults, so each chunk grades only the faults still
// undetected and the walk ends once none is left; a miss is Untestable.
// Larger spaces are walked in the sampled regime: opt.SampleBudget draws
// from fault i's own source, seeded opt.Seed + i*0x9E3779B9, faults in
// parallel; a miss is Aborted. Either way the result is independent of
// the scheduler's worker count.
func search(sched *atpg.Scheduler, s *Circuit, faults []fault.OBD, style Style, opt *Options) (*Result, error) {
	sp, err := newLaunchSpace(s, style)
	if err != nil {
		return nil, err
	}
	found := make([]*atpg.TwoPattern, len(faults))
	errs := make([]error, len(faults))
	newChunk := func() *chunk { return &chunk{sp: sp, words: make([]uint64, chunkBlocks*sp.bits)} }
	out := &Result{Style: style, Statuses: make([]atpg.Status, len(faults)), Exact: sp.bits <= opt.ExhaustiveMaxIn && sp.bits <= 30}
	miss := atpg.Untestable
	if out.Exact {
		c := newChunk()
		c.scan(sched, faults, found, errs, 1<<uint(sp.bits), c.count)
	} else {
		miss = atpg.Aborted
		one := atpg.NewScheduler(1)
		sched.ForEach(len(faults), func(i int) {
			c := newChunk()
			rng := rand.New(rand.NewSource(opt.Seed + int64(i)*0x9E3779B9)) // decorrelate per-fault sampling
			c.scan(one, faults[i:i+1], found[i:i+1], errs[i:i+1], opt.SampleBudget, c.draws(rng))
		})
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out.Coverage = atpg.Coverage{Total: len(faults)}
	for i, f := range faults {
		if found[i] != nil {
			out.Statuses[i] = atpg.Detected
			out.Tests = append(out.Tests, *found[i])
			out.Coverage.Detected++
		} else {
			out.Statuses[i] = miss
			out.Coverage.Undetected = append(out.Coverage.Undetected, f.String())
		}
	}
	return out, nil
}

// Result is the outcome of a batch generation run over one style.
type Result struct {
	Style    Style
	Tests    []atpg.TwoPattern // one per Detected fault, in fault order
	Statuses []atpg.Status     // per input fault
	Coverage atpg.Coverage
	Exact    bool // the Untestable verdicts are exhaustive
}

// GenerateTestsOn runs the style's generator over a fault list on the
// scheduler's pool (nil: GOMAXPROCS workers). Every fault gets the pair
// Generate would return for it, with a sampling seed derived from its
// index, so the result is bit-identical for any worker count.
func GenerateTestsOn(sched *atpg.Scheduler, s *Circuit, faults []fault.OBD, style Style, opt *Options) (*Result, error) {
	if opt == nil {
		opt = DefaultOptions()
	}
	return search(sched, s, faults, style, opt)
}
