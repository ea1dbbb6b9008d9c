package fault

import (
	"fmt"
	"math/bits"
	"strings"

	"gobd/internal/logic"
)

// Pair is an ordered two-pattern assignment (v1 then v2) to one gate's
// inputs — the local excitation condition format of the paper's Table 1
// header, e.g. (01,11).
type Pair struct {
	V1, V2 []logic.Value
}

// String renders the pair in the paper's notation.
func (p Pair) String() string {
	var b strings.Builder
	b.WriteString("(")
	for _, v := range p.V1 {
		b.WriteString(v.String())
	}
	b.WriteString(",")
	for _, v := range p.V2 {
		b.WriteString(v.String())
	}
	b.WriteString(")")
	return b.String()
}

// Equal reports value equality.
func (p Pair) Equal(q Pair) bool {
	if len(p.V1) != len(q.V1) || len(p.V2) != len(q.V2) {
		return false
	}
	for i := range p.V1 {
		if p.V1[i] != q.V1[i] {
			return false
		}
	}
	for i := range p.V2 {
		if p.V2[i] != q.V2[i] {
			return false
		}
	}
	return true
}

// ParsePair parses the paper notation "(01,11)".
func ParsePair(s string) (Pair, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '(' || s[len(s)-1] != ')' {
		return Pair{}, fmt.Errorf("fault: bad pair syntax %q", s)
	}
	parts := strings.Split(s[1:len(s)-1], ",")
	if len(parts) != 2 {
		return Pair{}, fmt.Errorf("fault: bad pair syntax %q", s)
	}
	conv := func(t string) ([]logic.Value, error) {
		vs := make([]logic.Value, len(t))
		for i, ch := range t {
			switch ch {
			case '0':
				vs[i] = logic.Zero
			case '1':
				vs[i] = logic.One
			case 'X', 'x':
				vs[i] = logic.X
			default:
				return nil, fmt.Errorf("fault: bad value %q in %q", string(ch), t)
			}
		}
		return vs, nil
	}
	v1, err := conv(strings.TrimSpace(parts[0]))
	if err != nil {
		return Pair{}, err
	}
	v2, err := conv(strings.TrimSpace(parts[1]))
	if err != nil {
		return Pair{}, err
	}
	if len(v1) != len(v2) {
		return Pair{}, fmt.Errorf("fault: pair halves differ in width: %q", s)
	}
	return Pair{V1: v1, V2: v2}, nil
}

// Excited applies the paper's excitation rule to a complete local input
// pair: the output must switch, the defective transistor's network must
// drive the new value, and removing the defective transistor must break
// conduction (it conducts with no conducting parallel sibling).
func (f OBD) Excited(v1, v2 []logic.Value) bool {
	nets, ok := GateNetworks(f.Gate.Type, len(f.Gate.Inputs))
	if !ok {
		return false
	}
	o1, o2 := f.Gate.Eval(v1), f.Gate.Eval(v2)
	if !o1.IsKnown() || !o2.IsKnown() || o1 == o2 {
		return false
	}
	// The network driving the final value must be the defective one.
	var drive Side
	if o2 == logic.One {
		drive = PullUp
	} else {
		drive = PullDown
	}
	if drive != f.Side {
		return false
	}
	net := nets.PullUp
	if f.Side == PullDown {
		net = nets.PullDown
	}
	if net.Conducts(v2, f.Side, -1) != logic.One {
		return false
	}
	return net.Conducts(v2, f.Side, f.Input) == logic.Zero
}

// ExcitedBits is Excited over 64 lanes of complete local pairs, by gate
// evaluation instead of a walk of the pull networks: o1 and o2 are the
// gate's output words in the two frames, v2 its frame-2 input words, and
// bit k of the result is Excited(lane k's v1, lane k's v2). Because each
// pin of a primitive gate drives one transistor per side, the defective
// transistor has no conducting parallel sibling exactly when the output
// would not have switched had its pin held the value that turns it off
// (1 for PMOS, 0 for NMOS). v2[f.Input] is swapped for that evaluation
// and restored, so the call allocates nothing. Composite gates excite
// nothing.
//
//obdcheck:hotpath
func (f OBD) ExcitedBits(o1, o2 uint64, v2 []uint64) uint64 {
	if !primitive(f.Gate.Type) || uint(f.Input) >= uint(len(v2)) {
		return 0
	}
	pin, off, drive := v2[f.Input], ^uint64(0), o2 // PMOS: off at 1, drives a rise
	if f.Side == PullDown {
		off, drive = 0, ^o2
	}
	v2[f.Input] = off
	held := f.Gate.EvalBits(v2) // the output with the defective transistor off
	v2[f.Input] = pin
	return (o1 ^ o2) & drive & (held ^ o2)
}

// Excited for EM applies the same series-parallel rule (see the EM type
// documentation for where the models diverge below gate level).
func (f EM) Excited(v1, v2 []logic.Value) bool { return OBD(f).Excited(v1, v2) }

// enumAssignments yields all complete 0/1 assignments of width n in
// ascending binary order with index bit i = value of input i.
func enumAssignments(n int) [][]logic.Value {
	out := make([][]logic.Value, 0, 1<<n)
	for m := 0; m < 1<<n; m++ {
		vs := make([]logic.Value, n)
		for i := range vs {
			vs[i] = logic.FromBool(m&(1<<i) != 0)
		}
		out = append(out, vs)
	}
	return out
}

// ExcitationPairs enumerates every complete local input pair that excites
// the fault, v1-major in ascending binary order. It packs the 4^n pairs
// 64 lanes per word and decides them with ExcitedBits, so the transistor
// networks are never built; pairs share their value slices.
func (f OBD) ExcitationPairs() []Pair {
	n := len(f.Gate.Inputs)
	asg := enumAssignments(n)
	total := len(asg) * len(asg)
	w1, w2 := make([]uint64, n), make([]uint64, n)
	var out []Pair
	for base := 0; base < total; base += 64 {
		lanes := min(64, total-base)
		for i := range w1 {
			w1[i], w2[i] = 0, 0
		}
		for k := 0; k < lanes; k++ {
			m1, m2 := (base+k)/len(asg), (base+k)%len(asg)
			for i := range w1 {
				w1[i] |= uint64(m1>>i&1) << k
				w2[i] |= uint64(m2>>i&1) << k
			}
		}
		ex := f.ExcitedBits(f.Gate.EvalBits(w1), f.Gate.EvalBits(w2), w2) & laneMask(lanes)
		for ; ex != 0; ex &= ex - 1 {
			p := base + bits.TrailingZeros64(ex)
			out = append(out, Pair{V1: asg[p/len(asg)], V2: asg[p%len(asg)]})
		}
	}
	return out
}

// syntheticGate builds a standalone gate instance for per-type analysis.
func syntheticGate(t logic.GateType, arity int) *logic.Gate {
	ins := make([]string, arity)
	for i := range ins {
		ins[i] = string(rune('a' + i))
	}
	return &logic.Gate{Name: t.String(), Type: t, Inputs: ins, Output: "y"}
}

// GateOBDFaults returns the OBD faults of a standalone gate of the given
// type and arity.
func GateOBDFaults(t logic.GateType, arity int) ([]OBD, error) {
	nets, ok := GateNetworks(t, arity)
	if !ok {
		return nil, fmt.Errorf("fault: %v is not a primitive CMOS gate", t)
	}
	g := syntheticGate(t, arity)
	var out []OBD
	for i := 0; i < arity; i++ {
		if nets.PullUp.ContainsInput(i) {
			out = append(out, OBD{Gate: g, Input: i, Side: PullUp})
		}
		if nets.PullDown.ContainsInput(i) {
			out = append(out, OBD{Gate: g, Input: i, Side: PullDown})
		}
	}
	return out, nil
}

// GatePairTable maps each OBD fault of a gate type to its full excitation
// pair list — the machine-checkable form of the paper's Section 4.1 and
// Section 5 statements.
func GatePairTable(t logic.GateType, arity int) (map[string][]Pair, error) {
	faults, err := GateOBDFaults(t, arity)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]Pair, len(faults))
	for _, f := range faults {
		out[f.String()] = f.ExcitationPairs()
	}
	return out, nil
}

// MinimalPairCover computes an exact minimum set of local input pairs that
// excites every OBD fault of the gate ("necessary and sufficient" in the
// paper's wording). It brute-forces subset sizes, which is fine for the
// ≤3-input primitive gates involved.
func MinimalPairCover(t logic.GateType, arity int) ([]Pair, error) {
	faults, err := GateOBDFaults(t, arity)
	if err != nil {
		return nil, err
	}
	// Candidate pairs: those exciting at least one fault, with per-pair
	// fault coverage bitmaps.
	type cand struct {
		p    Pair
		mask uint64
	}
	var cands []cand
	asg := enumAssignments(arity)
	for _, v1 := range asg {
		for _, v2 := range asg {
			var mask uint64
			for fi, f := range faults {
				if f.Excited(v1, v2) {
					mask |= 1 << uint(fi)
				}
			}
			if mask != 0 {
				cands = append(cands, cand{p: Pair{V1: v1, V2: v2}, mask: mask})
			}
		}
	}
	full := uint64(1)<<uint(len(faults)) - 1
	if full == 0 {
		return nil, nil
	}
	// Increasing subset size; recursive choose.
	var pick func(start int, left int, acc uint64, chosen []int) []int
	pick = func(start, left int, acc uint64, chosen []int) []int {
		if acc == full {
			return append([]int(nil), chosen...)
		}
		if left == 0 || start >= len(cands) {
			return nil
		}
		for i := start; i <= len(cands)-left; i++ {
			if r := pick(i+1, left-1, acc|cands[i].mask, append(chosen, i)); r != nil {
				return r
			}
		}
		return nil
	}
	for k := 1; k <= len(cands); k++ {
		if sel := pick(0, k, 0, nil); sel != nil {
			out := make([]Pair, len(sel))
			for i, ci := range sel {
				out[i] = cands[ci].p
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("fault: no pair cover exists for %v/%d", t, arity)
}
