// Package bist implements logic built-in self-test for OBD defects — the
// direction the paper's Section 5 closes on: "the small set of input
// transitions … makes built-in-testing for such defects promising,
// particularly for safety-critical applications". An LFSR applies a
// test-per-clock pattern stream (every pair of consecutive patterns is a
// two-pattern launch), and a MISR compacts the output responses into a
// signature compared against the fault-free golden signature.
package bist

import (
	"context"
	"fmt"
	"sort"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// maximalTaps holds the feedback masks of maximal-length GALOIS LFSRs
// (the mask for width w sets bit t−1 for each 1-based tap position t of
// the standard primitive polynomials, e.g. width 8 uses taps 8,6,5,4).
// The period tests verify every entry reaches 2^w − 1.
var maximalTaps = map[int]uint64{
	2:  0x3,    // 2,1
	3:  0x6,    // 3,2
	4:  0xC,    // 4,3
	5:  0x14,   // 5,3
	6:  0x30,   // 6,5
	7:  0x60,   // 7,6
	8:  0xB8,   // 8,6,5,4
	9:  0x110,  // 9,5
	10: 0x240,  // 10,7
	11: 0x500,  // 11,9
	12: 0x829,  // 12,6,4,1
	13: 0x100D, // 13,4,3,1
	14: 0x2015, // 14,5,3,1
	15: 0x6000, // 15,14
	16: 0xD008, // 16,15,13,4
}

// LFSR is a Galois linear-feedback shift register (right-shifting; the
// tap mask is XORed in when the shifted-out bit is 1).
type LFSR struct {
	width int
	taps  uint64
	state uint64
}

// NewLFSR builds a maximal-length LFSR of the given width (2–16) with a
// non-zero seed (the seed is folded into range).
func NewLFSR(width int, seed uint64) (*LFSR, error) {
	taps, ok := maximalTaps[width]
	if !ok {
		return nil, fmt.Errorf("bist: no maximal tap set for width %d", width)
	}
	mask := uint64(1)<<uint(width) - 1
	seed &= mask
	if seed == 0 {
		seed = 1
	}
	return &LFSR{width: width, taps: taps, state: seed}, nil
}

// State returns the current register contents.
func (l *LFSR) State() uint64 { return l.state }

// Next advances one clock and returns the new state.
func (l *LFSR) Next() uint64 {
	lsb := l.state & 1
	l.state >>= 1
	if lsb == 1 {
		l.state ^= l.taps
	}
	return l.state
}

// Period returns the sequence length until the state repeats (2^w − 1 for
// maximal-length configurations).
func (l *LFSR) Period() int {
	start := l.state
	n := 0
	for {
		l.Next()
		n++
		if l.state == start {
			return n
		}
	}
}

// PatternSequence expands n successive LFSR states into primary-input
// patterns. Input i is driven by state bit (i·spread) mod width: with a
// spread ≥ 2 (a simple phase spreader), consecutive patterns stop being
// shift-images of each other, which matters enormously for OBD coverage —
// consecutive shift-correlated patterns are exactly the launch-on-shift
// constraint that misses input-specific PMOS faults.
func PatternSequence(c *logic.Circuit, l *LFSR, n, spread int) []atpg.Pattern {
	if spread < 1 {
		spread = 1
	}
	out := make([]atpg.Pattern, 0, n)
	for k := 0; k < n; k++ {
		st := l.Next()
		p := make(atpg.Pattern, len(c.Inputs))
		for i, in := range c.Inputs {
			bit := uint((i * spread) % l.width)
			p[in] = logic.FromBool(st&(1<<bit) != 0)
		}
		out = append(out, p)
	}
	return out
}

// MISR is a multiple-input signature register compacting one word of
// primary-output response per clock.
type MISR struct {
	width int
	taps  uint64
	state uint64
	mask  uint64
}

// NewMISR builds a MISR of the given width (2–16).
func NewMISR(width int, seed uint64) (*MISR, error) {
	taps, ok := maximalTaps[width]
	if !ok {
		return nil, fmt.Errorf("bist: no maximal tap set for width %d", width)
	}
	mask := uint64(1)<<uint(width) - 1
	return &MISR{width: width, taps: taps, state: seed & mask, mask: mask}, nil
}

// Shift folds one response word into the signature (Galois step, then the
// response XORed in).
func (m *MISR) Shift(resp uint64) {
	lsb := m.state & 1
	m.state >>= 1
	if lsb == 1 {
		m.state ^= m.taps
	}
	m.state = (m.state ^ resp) & m.mask
}

// Signature returns the compacted signature.
func (m *MISR) Signature() uint64 { return m.state }

// responseWord packs the primary-output values (sorted order) into a word.
func responseWord(c *logic.Circuit, vals map[string]logic.Value, pos []string) uint64 {
	var w uint64
	for i, po := range pos {
		if vals[po] == logic.One {
			w |= 1 << uint(i)
		}
	}
	return w
}

// Session is a test-per-clock BIST run over one circuit: the LFSR stream
// is applied as consecutive launch pairs and both the per-cycle detection
// record and the MISR signatures are computed.
type Session struct {
	Circuit *logic.Circuit
	Pats    []atpg.Pattern
	pos     []string
	misrW   int
}

// NewSession prepares a BIST session of n clocks. The LFSR is sized to
// roughly twice the input count (phase-spread across the register) and
// the MISR to at least 12 bits so signature aliasing stays below 0.1%.
// A negative n is an error.
func NewSession(c *logic.Circuit, seed uint64, n int) (*Session, error) {
	if n < 0 {
		return nil, fmt.Errorf("bist: stream length %d is negative", n)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	width := 2 * len(c.Inputs)
	if width < 4 {
		width = 4
	}
	if width > 16 {
		width = 16
	}
	l, err := NewLFSR(width, seed)
	if err != nil {
		return nil, err
	}
	pos := append([]string(nil), c.Outputs...)
	sort.Strings(pos)
	misrW := len(pos)
	if misrW < 12 {
		misrW = 12
	}
	if misrW > 16 {
		misrW = 16
	}
	return &Session{Circuit: c, Pats: PatternSequence(c, l, n, 2), pos: pos, misrW: misrW}, nil
}

// Pairs returns the consecutive launch pairs of the stream. A session
// with fewer than two patterns has no launch pairs.
func (s *Session) Pairs() []atpg.TwoPattern {
	if len(s.Pats) == 0 {
		return nil
	}
	out := make([]atpg.TwoPattern, 0, len(s.Pats)-1)
	for i := 1; i < len(s.Pats); i++ {
		out = append(out, atpg.TwoPattern{V1: s.Pats[i-1], V2: s.Pats[i]})
	}
	return out
}

// GoldenSignature compacts the fault-free responses.
func (s *Session) GoldenSignature() (uint64, error) {
	m, err := NewMISR(s.misrW, 0)
	if err != nil {
		return 0, err
	}
	for _, p := range s.Pats {
		vals := s.Circuit.Eval(p, nil)
		m.Shift(responseWord(s.Circuit, vals, s.pos))
	}
	return m.Signature(), nil
}

// FaultResult grades one OBD fault against the session.
type FaultResult struct {
	DetectedCycles int    // launch pairs whose response differs at a PO
	FirstCycle     int    // first detecting pair index (-1 when none)
	Signature      uint64 // the compacted faulty signature
	Aliased        bool   // detected per-cycle but signature equals golden
}

// RunFault simulates the stream against one OBD fault under the
// gross-delay model (each consecutive pair is an independent launch).
func (s *Session) RunFault(f fault.OBD, golden uint64) (FaultResult, error) {
	m, err := NewMISR(s.misrW, 0)
	if err != nil {
		return FaultResult{}, err
	}
	res := FaultResult{FirstCycle: -1}
	// Cycle 0 has no launch: fault-free response by construction.
	if len(s.Pats) > 0 {
		vals := s.Circuit.Eval(s.Pats[0], nil)
		m.Shift(responseWord(s.Circuit, vals, s.pos))
	}
	for i := 1; i < len(s.Pats); i++ {
		good, faulty, excited := fault.Respond(s.Circuit, s.Pats[i-1], s.Pats[i], f)
		word := responseWord(s.Circuit, good, s.pos)
		if excited && fault.Detects(good, faulty, s.Circuit.Outputs...) {
			word = responseWord(s.Circuit, faulty, s.pos)
			res.DetectedCycles++
			if res.FirstCycle < 0 {
				res.FirstCycle = i
			}
		}
		m.Shift(word)
	}
	res.Signature = m.Signature()
	res.Aliased = res.DetectedCycles > 0 && res.Signature == golden
	return res, nil
}

// RunFaults simulates the stream against every fault in the list, sharding
// the faults across the scheduler's pool (nil: GOMAXPROCS workers). Results
// come back in fault-list order regardless of worker count; the first error
// in that order, if any, is returned.
func (s *Session) RunFaults(faults []fault.OBD, golden uint64, sched *atpg.Scheduler) ([]FaultResult, error) {
	out, rep := s.RunFaultsCtx(context.Background(), faults, golden, sched)
	if err := rep.AsError(); err != nil {
		return nil, err
	}
	return out, nil
}

// RunFaultsCtx is RunFaults under the hardened scheduler contract: the
// run honors ctx cancellation (completed slots form a deterministic
// prefix), a panicking fault simulation is confined to a per-item error,
// and the RunReport carries per-fault attribution.
func (s *Session) RunFaultsCtx(ctx context.Context, faults []fault.OBD, golden uint64, sched *atpg.Scheduler) ([]FaultResult, *atpg.RunReport) {
	out := make([]FaultResult, len(faults))
	rep := sched.ForEachCtx(ctx, len(faults), func(i int) error {
		var err error
		out[i], err = s.RunFault(faults[i], golden)
		return err
	})
	return out, rep
}
