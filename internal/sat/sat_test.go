package sat

import (
	"math/rand"
	"reflect"
	"testing"
)

// bruteForce decides satisfiability by enumerating all assignments.
func bruteForce(nVars int, cnf [][]Lit) (bool, []bool) {
	model := make([]bool, nVars+1)
	for m := 0; m < 1<<nVars; m++ {
		for v := 1; v <= nVars; v++ {
			model[v] = m&(1<<(v-1)) != 0
		}
		if CheckModel(cnf, model) == nil {
			return true, append([]bool(nil), model...)
		}
	}
	return false, nil
}

// solveCNF runs a fresh proof-logging solver over the clause list.
func solveCNF(cnf [][]Lit) (*Solver, Status) {
	s := &Solver{ProofEnabled: true}
	for _, cl := range cnf {
		s.AddClause(cl...)
	}
	return s, s.Solve()
}

// pigeonhole returns PHP(pigeons, holes), unsatisfiable when pigeons > holes.
func pigeonhole(pigeons, holes int) [][]Lit {
	v := func(p, h int) Lit { return Lit(p*holes + h + 1) }
	var cnf [][]Lit
	for p := 0; p < pigeons; p++ {
		var cl []Lit
		for h := 0; h < holes; h++ {
			cl = append(cl, v(p, h))
		}
		cnf = append(cnf, cl)
	}
	for h := 0; h < holes; h++ {
		for p := 0; p < pigeons; p++ {
			for q := p + 1; q < pigeons; q++ {
				cnf = append(cnf, []Lit{-v(p, h), -v(q, h)})
			}
		}
	}
	return cnf
}

func TestSimpleSat(t *testing.T) {
	cnf := [][]Lit{{1, 2}, {-1, 3}, {-2, -3}, {3}}
	s, st := solveCNF(cnf)
	if st != Sat {
		t.Fatalf("status = %v, want sat", st)
	}
	if err := CheckModel(cnf, s.Model()); err != nil {
		t.Fatalf("model rejected: %v", err)
	}
}

func TestSimpleUnsat(t *testing.T) {
	cnf := [][]Lit{{1, 2}, {1, -2}, {-1, 2}, {-1, -2}}
	s, st := solveCNF(cnf)
	if st != Unsat {
		t.Fatalf("status = %v, want unsat", st)
	}
	if err := Check(s.NumVars(), cnf, s.Proof()); err != nil {
		t.Fatalf("refutation rejected: %v", err)
	}
}

// TestPigeonhole solves PHP(4,3): 4 pigeons in 3 holes, classically
// unsatisfiable and conflict-heavy enough to exercise learning,
// restarts and the proof logger.
func TestPigeonhole(t *testing.T) {
	cnf := pigeonhole(4, 3)
	s, st := solveCNF(cnf)
	if st != Unsat {
		t.Fatalf("PHP(4,3) = %v, want unsat", st)
	}
	if len(s.Proof()) < 2 {
		t.Fatalf("refutation suspiciously short: %d clauses", len(s.Proof()))
	}
	if err := Check(s.NumVars(), cnf, s.Proof()); err != nil {
		t.Fatalf("refutation rejected: %v", err)
	}
}

func TestEmptyAndUnitClauses(t *testing.T) {
	s := &Solver{ProofEnabled: true}
	s.AddClause() // empty clause: immediately unsat
	if st := s.Solve(); st != Unsat {
		t.Fatalf("empty clause solve = %v", st)
	}
	if err := Check(1, [][]Lit{{}}, Proof{{}}); err != nil {
		t.Fatalf("empty-clause refutation rejected: %v", err)
	}

	s = &Solver{ProofEnabled: true}
	s.AddClause(1)
	s.AddClause(-1)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("contradictory units = %v", st)
	}
	if err := Check(1, [][]Lit{{1}, {-1}}, s.Proof()); err != nil {
		t.Fatalf("unit refutation rejected: %v", err)
	}

	// Tautologies and duplicates must not derail anything.
	s = &Solver{}
	s.AddClause(1, -1)
	s.AddClause(2, 2, 3)
	s.AddClause(-3)
	if st := s.Solve(); st != Sat {
		t.Fatalf("taut/dup solve = %v", st)
	}
	if !s.Value(2) {
		t.Fatal("clause (2 2 3) with -3 must force 2")
	}
}

// TestIncrementalSolve adds clauses between Solve calls: the verdict
// must tighten monotonically and stay correct.
func TestIncrementalSolve(t *testing.T) {
	s := &Solver{ProofEnabled: true}
	s.AddClause(1, 2)
	s.AddClause(-1, 2)
	if st := s.Solve(); st != Sat {
		t.Fatalf("phase 1 = %v", st)
	}
	if !s.Value(2) {
		t.Fatal("2 must hold in every model")
	}
	s.AddClause(-2)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("phase 2 = %v", st)
	}
	cnf := [][]Lit{{1, 2}, {-1, 2}, {-2}}
	if err := Check(s.NumVars(), cnf, s.Proof()); err != nil {
		t.Fatalf("incremental refutation rejected: %v", err)
	}
}

// TestDeterminism pins the solver's contract: identical inputs (clauses,
// order, seed) produce identical models and proofs across fresh solvers.
func TestDeterminism(t *testing.T) {
	cnf := [][]Lit{
		{1, 2, 3}, {-1, 4}, {-2, 5}, {-3, -4}, {-4, -5},
		{2, 6}, {-6, 1}, {5, 6, -3}, {-1, -2, -3},
	}
	run := func(seed uint64) (Status, []bool, Proof) {
		s := &Solver{ProofEnabled: true, Seed: seed}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		st := s.Solve()
		return st, s.Model(), s.Proof()
	}
	st1, m1, p1 := run(0)
	st2, m2, p2 := run(0)
	if st1 != st2 || !reflect.DeepEqual(m1, m2) || !reflect.DeepEqual(p1, p2) {
		t.Fatal("two identical runs disagree")
	}
	// A different seed may search differently but must agree on the verdict.
	st3, m3, _ := run(12345)
	if st3 != st1 {
		t.Fatalf("seed changed the verdict: %v vs %v", st3, st1)
	}
	if st3 == Sat {
		if err := CheckModel(cnf, m3); err != nil {
			t.Fatalf("seeded model rejected: %v", err)
		}
	}
}

func TestMaxConflicts(t *testing.T) {
	// PHP(5,4) needs well over one conflict; a budget of 1 must abort.
	s := &Solver{MaxConflicts: 1}
	for _, cl := range pigeonhole(5, 4) {
		s.AddClause(cl...)
	}
	if st := s.Solve(); st != Unknown {
		t.Fatalf("budget-1 solve = %v, want unknown", st)
	}
	s.MaxConflicts = 0
	if st := s.Solve(); st != Unsat {
		t.Fatalf("unlimited re-solve = %v, want unsat", st)
	}
}

func TestCheckRejectsBogusProofs(t *testing.T) {
	cnf := [][]Lit{{1, 2}, {1, -2}, {-1, 2}, {-1, -2}}
	s, st := solveCNF(cnf)
	if st != Unsat {
		t.Fatalf("setup: %v", st)
	}
	good := s.Proof()
	// Truncated: missing the empty clause.
	if err := Check(2, cnf, good[:len(good)-1]); err == nil {
		t.Fatal("truncated proof accepted")
	}
	// A clause over a fresh variable is never RUP from this CNF.
	bogus := append(Proof{{3}}, good...)
	if err := Check(3, cnf, bogus); err == nil {
		t.Fatal("non-RUP clause accepted")
	}
	// A SAT formula must never admit a refutation.
	satCNF := [][]Lit{{1, 2}, {-1, 2}}
	if err := Check(2, satCNF, Proof{{2}, {}}); err == nil {
		t.Fatal("refutation of a satisfiable formula accepted")
	}
	// Out-of-range literal.
	if err := Check(2, cnf, Proof{{7}, {}}); err == nil {
		t.Fatal("out-of-range literal accepted")
	}
}

// TestSolveZeroAllocSteadyState is the dynamic half of the hot-path
// contract (propagate/analyze are //obdcheck:hotpath and statically
// audited by hotalloc): once the trail, watch lists and order heap are
// warm, re-solving with saved phases must allocate nothing. The
// instance forces real work per call — a decision cascading unit
// propagation through binary and ternary clauses.
func TestSolveZeroAllocSteadyState(t *testing.T) {
	s := &Solver{}
	const chain = 40
	// d=false propagates x1..xn through (d ∨ x_i) and (¬x_i ∨ x_{i+1});
	// ternary clauses add watch migration to the steady-state loop.
	d := Lit(1)
	x := func(i int) Lit { return Lit(2 + i) }
	s.AddClause(d, x(0))
	for i := 0; i+1 < chain; i++ {
		s.AddClause(-x(i), x(i+1))
		if i+2 < chain {
			s.AddClause(d, x(i), x(i+2))
		}
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("warmup solve = %v", st)
	}
	// Extra warmup rounds let watch-list capacities reach their fixpoint.
	for i := 0; i < 50; i++ {
		if st := s.Solve(); st != Sat {
			t.Fatalf("warmup re-solve = %v", st)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if st := s.Solve(); st != Sat {
			t.Fatal("steady-state solve not sat")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Solve allocated %v times per call, want 0", allocs)
	}
}

// randomCNF draws a seeded random CNF near the satisfiability
// threshold: n variables and 6n clauses of three or four literals, so a
// sequence of them mixes sat and unsat formulas that need real search.
func randomCNF(rng *rand.Rand, n int) [][]Lit {
	cnf := make([][]Lit, 0, 6*n)
	for len(cnf) < cap(cnf) {
		cl := make([]Lit, 3+rng.Intn(2))
		for i := range cl {
			cl[i] = Lit(1 + rng.Intn(n))
			if rng.Intn(2) == 0 {
				cl[i] = -cl[i]
			}
		}
		cnf = append(cnf, cl)
	}
	return cnf
}

// TestResetMatchesFresh pins Reset's contract: one solver decides a
// sequence of formulas, reset between them, and every result (status,
// model, proof) equals a fresh solver's with the same options. The
// sequence includes a budget-exhausted Unknown solve and a formula
// refuted inside AddClause, and a proof returned before a Reset must be
// unchanged after the next formula is solved.
func TestResetMatchesFresh(t *testing.T) {
	type step struct {
		cnf    [][]Lit
		budget int64
	}
	for _, seed := range []uint64{0, 7} {
		rng := rand.New(rand.NewSource(int64(seed) + 1))
		var steps []step
		for i := 0; i < 24; i++ {
			steps = append(steps, step{cnf: randomCNF(rng, 5+rng.Intn(40))})
			switch i {
			case 5:
				steps = append(steps, step{cnf: pigeonhole(5, 4), budget: 1})
			case 11:
				// Refuted while loading: {1} then {-1} empties the formula.
				steps = append(steps, step{cnf: append([][]Lit{{1}, {-1}}, randomCNF(rng, 9)...)})
			case 17:
				steps = append(steps, step{cnf: pigeonhole(4, 3)})
			}
		}
		warm := &Solver{ProofEnabled: true, Seed: seed}
		var lastProof, lastCopy Proof
		seen := map[Status]int{}
		for k, st := range steps {
			warm.Reset()
			warm.MaxConflicts = st.budget
			fresh := &Solver{ProofEnabled: true, Seed: seed, MaxConflicts: st.budget}
			for _, cl := range st.cnf {
				warm.AddClause(cl...)
				fresh.AddClause(cl...)
			}
			got, want := warm.Solve(), fresh.Solve()
			if got != want {
				t.Fatalf("seed %d step %d: reset solver %v, fresh solver %v", seed, k, got, want)
			}
			if !reflect.DeepEqual(warm.Model(), fresh.Model()) {
				t.Fatalf("seed %d step %d: models differ", seed, k)
			}
			if !reflect.DeepEqual(warm.Proof(), fresh.Proof()) {
				t.Fatalf("seed %d step %d: proofs differ:\n%v\n%v", seed, k, warm.Proof(), fresh.Proof())
			}
			if got == Unsat {
				if err := Check(warm.NumVars(), st.cnf, warm.Proof()); err != nil {
					t.Fatalf("seed %d step %d: refutation rejected: %v", seed, k, err)
				}
			}
			if !reflect.DeepEqual(lastProof, lastCopy) {
				t.Fatalf("seed %d step %d: the previous formula's proof changed after Reset", seed, k)
			}
			lastProof, lastCopy = warm.Proof(), nil
			for _, cl := range lastProof {
				lastCopy = append(lastCopy, append([]Lit{}, cl...))
			}
			seen[got]++
		}
		if seen[Sat] == 0 || seen[Unsat] < 2 || seen[Unknown] != 1 {
			t.Fatalf("seed %d: sequence outcomes %v, want sat, unsat and one unknown", seed, seen)
		}
	}
}

// TestResetZeroAllocSteadyState: once a solver's buffers are warm,
// Reset, loading the same formula again and solving it allocate
// nothing (proof logging off). The formula is an unsat random CNF, so
// the loop includes conflicts, learnt clauses and restarts.
func TestResetZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var cnf [][]Lit
	for {
		cnf = randomCNF(rng, 40)
		if _, st := solveCNF(cnf); st == Unsat {
			break
		}
	}
	s := &Solver{}
	load := func() Status {
		s.Reset()
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		return s.Solve()
	}
	for i := 0; i < 3; i++ {
		if st := load(); st != Unsat {
			t.Fatalf("warmup solve = %v, want unsat", st)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if st := load(); st != Unsat {
			t.Fatal("steady-state solve not unsat")
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset, reload and Solve allocated %v times per call, want 0", allocs)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}
