package sat

import (
	"bytes"
	"reflect"
	"testing"
)

// decodeCNF turns fuzz bytes into a small CNF: the first byte fixes the
// variable count (1..6), each following byte is one literal (0 ends the
// current clause), bounded so brute force stays instant.
func decodeCNF(data []byte) (int, [][]Lit) {
	if len(data) == 0 {
		return 0, nil
	}
	nVars := 1 + int(data[0])%6
	var cnf [][]Lit
	var cl []Lit
	for _, b := range data[1:] {
		if len(cnf) >= 48 {
			break
		}
		code := int(b) % (2*nVars + 1) // 0 ends a clause; 1..2n is ±v
		if code == 0 {
			cnf = append(cnf, cl)
			cl = nil
			continue
		}
		v := Lit((code-1)/2 + 1)
		if code%2 == 0 {
			v = -v
		}
		if len(cl) < 8 {
			cl = append(cl, v)
		}
	}
	if cl != nil {
		cnf = append(cnf, cl)
	}
	return nVars, cnf
}

// FuzzSAT cross-checks the CDCL solver against brute-force enumeration
// on arbitrary small CNFs: verdicts must agree, Sat models must satisfy
// every clause, and Unsat proofs must pass the independent RUP checker.
// Determinism rides along: a second identical run must match exactly,
// and so must a run on a solver Reset after solving another formula.
func FuzzSAT(f *testing.F) {
	f.Add([]byte{3, 1, 3, 0, 2, 4, 0, 5, 6, 0})
	f.Add([]byte{2, 1, 0, 2, 0, 3, 4, 0})          // forces units
	f.Add([]byte{1, 1, 0, 2, 0})                   // x and ¬x: unsat
	f.Add([]byte{4, 1, 3, 5, 0, 2, 4, 6, 0, 7, 0}) // mixed polarities
	f.Add([]byte{5, 0, 0, 0})                      // empty clauses
	f.Add(bytes.Repeat([]byte{6, 11, 12, 0}, 10))  // repetition
	f.Fuzz(func(t *testing.T, data []byte) {
		nVars, cnf := decodeCNF(data)
		if nVars == 0 {
			return
		}
		s := &Solver{ProofEnabled: true}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		st := s.Solve()
		wantSat, _ := bruteForce(nVars, cnf)
		switch st {
		case Sat:
			if !wantSat {
				t.Fatalf("solver says sat, brute force says unsat: %v", cnf)
			}
			if err := CheckModel(cnf, s.Model()); err != nil {
				t.Fatalf("model invalid: %v (cnf %v)", err, cnf)
			}
		case Unsat:
			if wantSat {
				t.Fatalf("solver says unsat, brute force says sat: %v", cnf)
			}
			if err := Check(nVars, cnf, s.Proof()); err != nil {
				t.Fatalf("refutation rejected: %v (cnf %v)", err, cnf)
			}
		case Unknown:
			t.Fatalf("unlimited solve returned unknown: %v", cnf)
		}
		// Determinism: a fresh identical run must reproduce the verdict.
		s2 := &Solver{}
		for _, cl := range cnf {
			s2.AddClause(cl...)
		}
		if st2 := s2.Solve(); st2 != st {
			t.Fatalf("re-run verdict drifted: %v then %v", st, st2)
		}
		// A warm solver: solve the mirror image (every literal negated),
		// Reset, then solve the input. Status, model and proof must equal
		// the fresh run's.
		s3 := &Solver{ProofEnabled: true}
		for _, cl := range cnf {
			mirror := make([]Lit, len(cl))
			for i, l := range cl {
				mirror[i] = -l
			}
			s3.AddClause(mirror...)
		}
		s3.Solve()
		s3.Reset()
		for _, cl := range cnf {
			s3.AddClause(cl...)
		}
		if st3 := s3.Solve(); st3 != st || !reflect.DeepEqual(s3.Model(), s.Model()) || !reflect.DeepEqual(s3.Proof(), s.Proof()) {
			t.Fatalf("reset solver differs from a fresh one: %v then %v (cnf %v)", st, st3, cnf)
		}
	})
}
