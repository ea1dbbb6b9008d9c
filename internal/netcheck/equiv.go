package netcheck

// Combinational equivalence checking on top of the same encoder. Two
// uses in this repo:
//
//   - ProveEquiv certifies that two circuits with matching interfaces
//     compute the same Boolean functions — the property the .bench
//     round-trip (FormatBench ∘ ParseBench) and netlist refactors need;
//   - ProveOBDEquiv certifies that two OBD faults are detected by
//     exactly the same complete two-patterns, which is the semantic
//     claim behind every CollapseOBDComplete class.
//
// Both build a miter whose UNSAT answer carries a RUP proof; the Verify
// functions re-encode the miter from scratch and run the independent
// checker, so a stored certificate never depends on trusting the
// solver run that produced it.

import (
	"fmt"
	"sort"

	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/sat"
)

// EquivError reports an interface mismatch that makes an equivalence
// question ill-posed (as opposed to answerable with "not equivalent").
type EquivError struct {
	Msg string
}

// Error implements error.
func (e *EquivError) Error() string { return "netcheck: " + e.Msg }

// EquivVerdict is the outcome of a combinational equivalence check.
type EquivVerdict struct {
	Equivalent bool `json:"equivalent"`
	// Counterexample assigns the shared primary inputs so that some
	// matched output differs (nil when Equivalent).
	Counterexample map[string]logic.Value `json:"counterexample,omitempty"`
	// Proof refutes the difference miter when Equivalent.
	Proof sat.Proof `json:"proof,omitempty"`
}

// nameSet folds a name list to its distinct-element set.
func nameSet(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// matchInterfaces demands equal PI and PO name sets and returns the
// distinct PO names in a's declaration order.
func matchInterfaces(a, b *logic.Circuit) ([]string, error) {
	ain, bin := nameSet(a.Inputs), nameSet(b.Inputs)
	for n := range ain {
		if !bin[n] {
			return nil, &EquivError{Msg: fmt.Sprintf("input %q exists only in %q", n, a.Name)}
		}
	}
	for n := range bin {
		if !ain[n] {
			return nil, &EquivError{Msg: fmt.Sprintf("input %q exists only in %q", n, b.Name)}
		}
	}
	aout, bout := nameSet(a.Outputs), nameSet(b.Outputs)
	for n := range aout {
		if !bout[n] {
			return nil, &EquivError{Msg: fmt.Sprintf("output %q exists only in %q", n, a.Name)}
		}
	}
	for n := range bout {
		if !aout[n] {
			return nil, &EquivError{Msg: fmt.Sprintf("output %q exists only in %q", n, b.Name)}
		}
	}
	seen := make(map[string]bool, len(a.Outputs))
	var pos []string
	for _, n := range a.Outputs {
		if !seen[n] {
			seen[n] = true
			pos = append(pos, n)
		}
	}
	return pos, nil
}

// cecMiter encodes both circuits over shared primary-input variables
// and asserts that some matched primary output differs.
func cecMiter(a, b *logic.Circuit, pos []string) (*cnfBuilder, []sat.Lit) {
	xa, xb := a.Index(), b.Index()
	bld := &cnfBuilder{}
	va := bld.encodeFrame(xa)
	pre := make([]sat.Lit, xb.NumNets())
	for _, in := range b.Inputs {
		pre[xb.NetIDs[in]] = va[xa.NetIDs[in]]
	}
	vb := bld.encodeFrameShared(xb, pre)
	ds := make([]sat.Lit, 0, len(pos))
	for _, po := range pos {
		la, lb := va[xa.NetIDs[po]], vb[xb.NetIDs[po]]
		d := bld.newVar()
		bld.add(-d, la, lb)
		bld.add(-d, -la, -lb)
		ds = append(ds, d)
	}
	bld.add(ds...)
	return bld, va
}

// ProveEquiv decides whether two validated circuits with identical
// primary-input and primary-output name sets compute the same function
// at every output. Equivalence comes with a RUP proof of the difference
// miter's unsatisfiability; inequivalence comes with a distinguishing
// input assignment. The check is exact and unbudgeted.
func ProveEquiv(a, b *logic.Circuit) (*EquivVerdict, error) {
	pos, err := matchInterfaces(a, b)
	if err != nil {
		return nil, err
	}
	bld, va := cecMiter(a, b, pos)
	s, st := bld.run(0)
	if st == sat.Unsat {
		return &EquivVerdict{Equivalent: true, Proof: s.Proof()}, nil
	}
	xa := a.Index()
	cex := make(map[string]logic.Value, len(a.Inputs))
	for i, in := range a.Inputs {
		cex[in] = logic.FromBool(s.Value(int(va[xa.InputIDs[i]])))
	}
	return &EquivVerdict{Counterexample: cex}, nil
}

// VerifyEquivProof re-encodes the difference miter of the two circuits
// and checks the stored refutation against it with the independent RUP
// checker. The returned error is an *EquivError for interface
// mismatches, otherwise the checker's *sat.CheckError.
func VerifyEquivProof(a, b *logic.Circuit, proof sat.Proof) error {
	pos, err := matchInterfaces(a, b)
	if err != nil {
		return err
	}
	bld, _ := cecMiter(a, b, pos)
	return sat.Check(bld.nv, bld.clauses, proof)
}

// OBDEquivVerdict is the outcome of a fault-equivalence check: either
// every complete two-pattern detects both faults or neither (with a RUP
// proof), or a distinguishing two-pattern detecting exactly one.
type OBDEquivVerdict struct {
	Equivalent bool                   `json:"equivalent"`
	Proof      sat.Proof              `json:"proof,omitempty"`
	V1         map[string]logic.Value `json:"v1,omitempty"`
	V2         map[string]logic.Value `json:"v2,omitempty"`
}

// obdEquivMiter encodes two circuit frames and the detection predicates
// of both faults over them, asserting the predicates differ.
func obdEquivMiter(c *logic.Circuit, f1, f2 fault.OBD) (*cnfBuilder, []sat.Lit, []sat.Lit) {
	x := c.Index()
	bld := newConeCNF(x)
	v1 := bld.encodeFrame(x)
	v2 := bld.encodeFrame(x)
	d1 := bld.encodeDetect(f1, v1, v2)
	d2 := bld.encodeDetect(f2, v1, v2)
	bld.add(d1, d2)
	bld.add(-d1, -d2)
	return &bld.cnfBuilder, v1, v2
}

// ProveOBDEquiv decides whether two OBD faults of one circuit are
// equivalent under complete two-pattern sets: detected by exactly the
// same (v1, v2) vector pairs. This is the per-pair semantic claim
// behind CollapseOBDComplete classes, decided exactly instead of
// argued structurally.
func ProveOBDEquiv(c *logic.Circuit, f1, f2 fault.OBD) OBDEquivVerdict {
	x := c.Index()
	bld, v1, v2 := obdEquivMiter(c, f1, f2)
	s, st := bld.run(0)
	if st == sat.Unsat {
		return OBDEquivVerdict{Equivalent: true, Proof: s.Proof()}
	}
	read := func(vars []sat.Lit) map[string]logic.Value {
		m := make(map[string]logic.Value, len(c.Inputs))
		for i, in := range c.Inputs {
			m[in] = logic.FromBool(s.Value(int(vars[x.InputIDs[i]])))
		}
		return m
	}
	return OBDEquivVerdict{V1: read(v1), V2: read(v2)}
}

// VerifyOBDEquivProof re-encodes the fault-equivalence miter and checks
// the stored refutation with the independent RUP checker.
func VerifyOBDEquivProof(c *logic.Circuit, f1, f2 fault.OBD, proof sat.Proof) error {
	bld, _, _ := obdEquivMiter(c, f1, f2)
	return sat.Check(bld.nv, bld.clauses, proof)
}

// CertifyCollapseOBD runs ProveOBDEquiv between each CollapseOBDComplete
// class representative (the first, lowest-index member) and every other
// member, returning the verdicts keyed "rep≡member" in class order. It
// is the self-audit for the collapsing pass: every verdict must come
// back Equivalent with a checkable proof.
func CertifyCollapseOBD(c *logic.Circuit, faults []fault.OBD) map[string]OBDEquivVerdict {
	classes := CollapseOBDComplete(c, faults)
	out := make(map[string]OBDEquivVerdict)
	for _, cls := range classes {
		rep := faults[cls[0]]
		for _, mi := range cls[1:] {
			key := rep.String() + "≡" + faults[mi].String()
			out[key] = ProveOBDEquiv(c, rep, faults[mi])
		}
	}
	return out
}

// SortedOBDEquivKeys returns the map keys in deterministic order for
// reporting.
func SortedOBDEquivKeys(m map[string]OBDEquivVerdict) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
