// Package diag implements fault-dictionary diagnosis for OBD defects —
// the "diagnose" leg of the concurrent test/diagnose/repair loop the paper
// motivates. A dictionary records, for every OBD fault, the full response
// signature of a two-pattern test set (which tests fail, and on which
// primary outputs); an observed failing response is then matched back to
// the candidate defect locations, exactly or by nearest signature when the
// observation is noisy.
package diag

import (
	"fmt"
	"sort"
	"strings"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// Response is the pass/fail observation of a test set: Response[i][j] is
// true when test i fails on primary output j (outputs in sorted order).
type Response [][]bool

// Key serializes a response for map keys and equality.
func (r Response) Key() string {
	var b strings.Builder
	for _, row := range r {
		for _, f := range row {
			if f {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		b.WriteByte('|')
	}
	return b.String()
}

// Distance returns the Hamming distance between two responses of the same
// shape (number of differing pass/fail bits).
func (r Response) Distance(o Response) int {
	d := 0
	for i := range r {
		for j := range r[i] {
			if r[i][j] != o[i][j] {
				d++
			}
		}
	}
	return d
}

// AnyFail reports whether any bit fails.
func (r Response) AnyFail() bool {
	for _, row := range r {
		for _, f := range row {
			if f {
				return true
			}
		}
	}
	return false
}

// Dictionary is a full-response fault dictionary.
type Dictionary struct {
	Circuit *logic.Circuit
	Tests   []atpg.TwoPattern
	Faults  []fault.OBD

	pos        []string
	signatures []Response
	byKey      map[string][]int // signature key -> fault indices
}

// SimulateResponse computes the response of one OBD fault to the test set
// under the gross-delay model.
func SimulateResponse(c *logic.Circuit, f fault.OBD, tests []atpg.TwoPattern) Response {
	pos := sortedOutputs(c)
	resp := make(Response, len(tests))
	for i, tp := range tests {
		resp[i] = make([]bool, len(pos))
		good, faulty, excited := fault.Respond(c, tp.V1, tp.V2, f)
		if !excited {
			continue
		}
		for j, po := range pos {
			resp[i][j] = fault.Detects(good, faulty, po)
		}
	}
	return resp
}

func sortedOutputs(c *logic.Circuit) []string {
	pos := append([]string(nil), c.Outputs...)
	sort.Strings(pos)
	return pos
}

// Build simulates every fault against the test set and indexes the
// signatures.
func Build(c *logic.Circuit, faults []fault.OBD, tests []atpg.TwoPattern) *Dictionary {
	d := &Dictionary{
		Circuit: c, Tests: tests, Faults: faults,
		pos:   sortedOutputs(c),
		byKey: make(map[string][]int),
	}
	d.signatures = make([]Response, len(faults))
	for i, f := range faults {
		r := SimulateResponse(c, f, tests)
		d.signatures[i] = r
		d.byKey[r.Key()] = append(d.byKey[r.Key()], i)
	}
	return d
}

// Signature returns fault i's stored response.
func (d *Dictionary) Signature(i int) Response { return d.signatures[i] }

// Classes partitions the DETECTED faults into indistinguishability classes
// (faults sharing a signature). Undetected faults (all-pass signature) are
// excluded.
func (d *Dictionary) Classes() [][]int {
	var out [][]int
	keys := make([]string, 0, len(d.byKey))
	for k := range d.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		idxs := d.byKey[k]
		if !d.signatures[idxs[0]].AnyFail() {
			continue
		}
		out = append(out, idxs)
	}
	return out
}

// UniquelyDiagnosable returns how many detected faults have a signature no
// other fault shares.
func (d *Dictionary) UniquelyDiagnosable() int {
	n := 0
	for _, cl := range d.Classes() {
		if len(cl) == 1 {
			n++
		}
	}
	return n
}

// Diagnose matches an observed response: an exact signature hit returns
// that class with distance 0; otherwise the class(es) at minimum Hamming
// distance are returned. An all-pass observation returns no candidates.
func (d *Dictionary) Diagnose(obs Response) (candidates []int, distance int, err error) {
	if len(obs) != len(d.Tests) {
		return nil, 0, fmt.Errorf("diag: observation has %d rows, want %d", len(obs), len(d.Tests))
	}
	for i := range obs {
		if len(obs[i]) != len(d.pos) {
			return nil, 0, fmt.Errorf("diag: observation row %d has %d outputs, want %d", i, len(obs[i]), len(d.pos))
		}
	}
	if !obs.AnyFail() {
		return nil, 0, nil
	}
	if idxs, ok := d.byKey[obs.Key()]; ok && d.signatures[idxs[0]].AnyFail() {
		return append([]int(nil), idxs...), 0, nil
	}
	best := -1
	for i, sig := range d.signatures {
		if !sig.AnyFail() {
			continue
		}
		dist := sig.Distance(obs)
		switch {
		case best < 0 || dist < best:
			best = dist
			candidates = candidates[:0]
			candidates = append(candidates, i)
		case dist == best:
			candidates = append(candidates, i)
		}
	}
	return candidates, best, nil
}
