// Package sat is a small, dependency-free CDCL SAT solver built for the
// exact static proofs in internal/netcheck: two-watched-literal unit
// propagation, VSIDS-style variable activity with deterministic
// index-order tie-breaking, first-UIP conflict-clause learning, Luby
// restarts, and optional RUP (reverse unit propagation) proof logging.
// Check replays an emitted refutation independently of the solver, so a
// caller never has to trust the search — only the much simpler checker.
//
// Determinism contract: a Solver is a pure function of its inputs. Given
// the same clauses in the same order and the same Seed, Solve returns
// the same status, the same model and the same proof on every run — no
// wall-clock, no global randomness, no map iteration feeds any decision.
// The Seed only perturbs the initial variable activities (splitmix64),
// changing tie-breaks, never correctness.
package sat

import "fmt"

// Lit is a DIMACS-style literal: +v for variable v, -v for its negation
// (variables are 1-based, 0 is invalid).
type Lit int32

// Proof is a RUP clause derivation: each clause is implied by the input
// formula plus the preceding proof clauses via unit propagation alone,
// and a refutation ends with the empty clause. Check verifies one.
type Proof [][]Lit

// Status is a Solve outcome.
type Status int8

// Solve outcomes. Unknown is only returned when MaxConflicts is set and
// exhausted; with an unlimited budget the solver is complete.
const (
	Unknown Status = iota
	Sat
	Unsat
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	case Unknown:
		return "unknown"
	default:
		return fmt.Sprintf("Status(%d)", int8(s))
	}
}

// Solver is a single-use-or-incremental CDCL engine. Add clauses with
// AddClause, then call Solve; more clauses may be added between Solve
// calls (assignments above decision level 0 are undone at each call).
// The zero value is ready to use, and Reset returns a used solver to
// that state while keeping its storage, so one solver can decide a
// sequence of formulas without allocating once its buffers are warm.
//
// Every stored clause, problem or learnt, lives in one int32 arena: a
// length word followed by the clause's internal literals. A clause is
// named by the arena offset of its length word, which is what the watch
// lists and reasons hold. The watched literals are always positions 0
// and 1; for reason clauses the implied literal is position 0.
type Solver struct {
	// MaxConflicts caps the conflicts spent by one Solve call; 0 or
	// negative means unlimited (the solver is then complete).
	MaxConflicts int64
	// Seed perturbs the initial activity of each variable by a tiny
	// deterministic amount (splitmix64), diversifying tie-breaks between
	// otherwise identical runs. Zero leaves all activities equal, so ties
	// break on the smallest variable index.
	Seed uint64
	// ProofEnabled turns on RUP proof logging; Proof() returns the
	// derivation after an Unsat verdict.
	ProofEnabled bool

	nVars   int
	arena   []int32   // every clause: length word, then its literals
	watches [][]int32 // per internal literal: offsets of watching clauses

	assign   []int8 // per var: 0 unassigned, +1 true, -1 false
	level    []int32
	reason   []int32 // clause offset, or -1 for decisions/top-level units
	trail    []int32
	trailLim []int32
	qhead    int

	activity []float64
	varInc   float64
	heap     []int32
	heapPos  []int32
	phase    []int8

	seen    []int8
	learnt  []int32
	proof   Proof
	unsat   bool
	scratch []int32 // AddClause normalization buffer
}

// Reset empties the solver: no variables, no clauses, no proof. Its
// options (MaxConflicts, Seed, ProofEnabled) and the capacity of every
// buffer stay, so the next formula loads into warm storage. A reset
// solver behaves exactly like a fresh one given the same options: the
// same clauses yield the same status, model and proof. The proof is
// dropped, not truncated, so a Proof returned before Reset stays intact.
func (s *Solver) Reset() {
	// Every field not named here starts from its zero value, as in a
	// fresh solver; the buffers keep their arrays at length zero.
	*s = Solver{
		MaxConflicts: s.MaxConflicts,
		Seed:         s.Seed,
		ProofEnabled: s.ProofEnabled,
		arena:        s.arena[:0],
		watches:      s.watches[:0],
		assign:       s.assign[:0],
		level:        s.level[:0],
		reason:       s.reason[:0],
		trail:        s.trail[:0],
		trailLim:     s.trailLim[:0],
		activity:     s.activity[:0],
		heap:         s.heap[:0],
		heapPos:      s.heapPos[:0],
		phase:        s.phase[:0],
		seen:         s.seen[:0],
		learnt:       s.learnt[:0],
		scratch:      s.scratch[:0],
	}
}

// NumVars returns the highest variable mentioned so far.
func (s *Solver) NumVars() int { return s.nVars }

// NewVar allocates a fresh variable and returns its (1-based) number.
func (s *Solver) NewVar() int {
	s.growTo(s.nVars + 1)
	return s.nVars
}

// growTo ensures per-variable state exists for variables 1..n.
func (s *Solver) growTo(n int) {
	for s.nVars < n {
		s.nVars++
		s.assign = append(s.assign, 0)
		s.level = append(s.level, 0)
		s.reason = append(s.reason, -1)
		s.activity = append(s.activity, 0)
		s.phase = append(s.phase, -1)
		s.seen = append(s.seen, 0)
		s.heapPos = append(s.heapPos, -1)
		if w := len(s.watches) + 2; w <= cap(s.watches) {
			// Reuse the watch lists a Reset left behind, emptied.
			s.watches = s.watches[:w]
			s.watches[w-2] = s.watches[w-2][:0]
			s.watches[w-1] = s.watches[w-1][:0]
		} else {
			s.watches = append(s.watches, nil, nil)
		}
		v := int32(s.nVars - 1)
		if s.Seed != 0 {
			// splitmix64 of (Seed, v): a deterministic sub-1e-3 nudge that
			// only reorders equal-activity ties.
			z := s.Seed + uint64(v)*0x9e3779b97f4a7c15
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			s.activity[v] = float64(z%1000) * 1e-6
		}
		s.heapPush(v)
	}
	if s.varInc == 0 {
		s.varInc = 1
	}
}

// litVal returns the current value of an internal literal.
func (s *Solver) litVal(l int32) int8 {
	v := s.assign[l>>1]
	if l&1 == 1 {
		return -v
	}
	return v
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

// toInternal converts an external literal, growing variable state.
func (s *Solver) toInternal(l Lit) int32 {
	v := l
	if v < 0 {
		v = -v
	}
	s.growTo(int(v))
	il := (int32(v) - 1) << 1
	if l < 0 {
		il |= 1
	}
	return il
}

// toExternal converts an internal literal back to DIMACS form.
func toExternal(l int32) Lit {
	e := Lit(l>>1) + 1
	if l&1 == 1 {
		return -e
	}
	return e
}

// AddClause adds a disjunction of literals. Duplicate literals are
// dropped and tautologies ignored; an empty (or fully falsified
// top-level) clause marks the formula unsatisfiable. Clauses must be
// added at decision level 0, i.e. outside Solve.
func (s *Solver) AddClause(lits ...Lit) {
	if s.unsat {
		// Already refuted: still grow variable state so NumVars keeps
		// covering every mentioned variable (Check depends on it).
		for _, l := range lits {
			if l != 0 {
				s.toInternal(l)
			}
		}
		return
	}
	s.scratch = s.scratch[:0]
	for _, l := range lits {
		if l == 0 {
			continue
		}
		il := s.toInternal(l)
		dup := false
		for _, q := range s.scratch {
			if q == il {
				dup = true
				break
			}
			if q == il^1 {
				return // tautology: trivially satisfied
			}
		}
		if !dup {
			s.scratch = append(s.scratch, il)
		}
	}
	// Partition: non-false literals first so they take the watch slots.
	nf := 0
	for i, l := range s.scratch {
		if s.litVal(l) == 1 {
			return // satisfied at the top level forever
		}
		if s.litVal(l) == 0 {
			s.scratch[i], s.scratch[nf] = s.scratch[nf], s.scratch[i]
			nf++
		}
	}
	switch nf {
	case 0:
		s.unsat = true // empty or all literals refuted by top-level units
	case 1:
		if len(s.scratch) == 1 {
			s.uncheckedEnqueue(s.scratch[0], -1)
			return
		}
		ci := s.store(s.scratch)
		s.uncheckedEnqueue(s.arena[ci+1], ci)
	default:
		s.store(s.scratch)
	}
}

// store appends lits to the clause arena behind a length word, attaches
// watches 0,1 and returns the clause's offset.
func (s *Solver) store(lits []int32) int32 {
	ci := int32(len(s.arena))
	s.arena = append(s.arena, int32(len(lits)))
	s.arena = append(s.arena, lits...)
	s.watches[lits[0]] = append(s.watches[lits[0]], ci)
	s.watches[lits[1]] = append(s.watches[lits[1]], ci)
	return ci
}

// clause returns the literals of the clause at arena offset ci. The
// slice aliases the arena: writes through it reorder the stored clause.
func (s *Solver) clause(ci int32) []int32 {
	return s.arena[ci+1 : ci+1+s.arena[ci]]
}

// uncheckedEnqueue assigns a literal true with the given reason clause.
func (s *Solver) uncheckedEnqueue(l int32, from int32) {
	v := l >> 1
	if l&1 == 0 {
		s.assign[v] = 1
	} else {
		s.assign[v] = -1
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate runs two-watched-literal unit propagation from the queue
// head, returning the conflicting clause index or -1.
//
//obdcheck:hotpath
func (s *Solver) propagate() int32 {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		fl := p ^ 1 // literal that just became false
		ws := s.watches[fl]
		j := 0
		for i := 0; i < len(ws); i++ {
			ci := ws[i]
			lits := s.clause(ci)
			if lits[0] == fl {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if s.litVal(lits[0]) == 1 {
				ws[j] = ci
				j++
				continue
			}
			moved := false
			for k := 2; k < len(lits); k++ {
				if s.litVal(lits[k]) != -1 {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1]] = append(s.watches[lits[1]], ci)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			ws[j] = ci
			j++
			if s.litVal(lits[0]) == -1 {
				// Conflict: keep the remaining watchers and bail out.
				for i++; i < len(ws); i++ {
					ws[j] = ws[i]
					j++
				}
				s.watches[fl] = ws[:j]
				s.qhead = len(s.trail)
				return ci
			}
			s.uncheckedEnqueue(lits[0], ci)
		}
		s.watches[fl] = ws[:j]
	}
	return -1
}

// analyze derives the first-UIP learned clause from a conflict into
// s.learnt (asserting literal at position 0, second-highest-level
// literal at position 1) and returns the backtrack level.
//
//obdcheck:hotpath
func (s *Solver) analyze(confl int32) int32 {
	s.learnt = s.learnt[:0]
	s.learnt = append(s.learnt, 0) // slot for the asserting literal
	pathC := 0
	p := int32(-1)
	idx := len(s.trail) - 1
	ci := confl
	for {
		lits := s.clause(ci)
		start := 0
		if p >= 0 {
			start = 1 // lits[0] is the implied literal p itself
		}
		for k := start; k < len(lits); k++ {
			q := lits[k]
			v := q >> 1
			if s.seen[v] != 0 || s.level[v] == 0 {
				continue
			}
			s.seen[v] = 1
			s.varBump(v)
			if s.level[v] >= s.decisionLevel() {
				pathC++
			} else {
				s.learnt = append(s.learnt, q)
			}
		}
		for s.seen[s.trail[idx]>>1] == 0 {
			idx--
		}
		p = s.trail[idx]
		v := p >> 1
		ci = s.reason[v]
		s.seen[v] = 0
		pathC--
		idx--
		if pathC <= 0 {
			break
		}
	}
	s.learnt[0] = p ^ 1
	bt := int32(0)
	if len(s.learnt) > 1 {
		// Move the highest-level remaining literal to the second watch.
		mi := 1
		for k := 2; k < len(s.learnt); k++ {
			if s.level[s.learnt[k]>>1] > s.level[s.learnt[mi]>>1] {
				mi = k
			}
		}
		s.learnt[1], s.learnt[mi] = s.learnt[mi], s.learnt[1]
		bt = s.level[s.learnt[1]>>1]
	}
	for k := 1; k < len(s.learnt); k++ {
		s.seen[s.learnt[k]>>1] = 0
	}
	return bt
}

// varBump raises a variable's activity and restores the heap order.
func (s *Solver) varBump(v int32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.heapPos[v] >= 0 {
		s.heapUp(int(s.heapPos[v]))
	}
}

// cancelUntil undoes all assignments above the given decision level,
// saving phases and re-inserting freed variables into the order heap.
func (s *Solver) cancelUntil(lvl int32) {
	if s.decisionLevel() <= lvl {
		return
	}
	lim := int(s.trailLim[lvl])
	for i := len(s.trail) - 1; i >= lim; i-- {
		v := s.trail[i] >> 1
		s.phase[v] = s.assign[v]
		s.assign[v] = 0
		s.reason[v] = -1
		s.heapPush(v)
	}
	s.trail = s.trail[:lim]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// decide picks the highest-activity unassigned variable (ties to the
// smallest index) with its saved phase, or -1 when none remain.
func (s *Solver) decide() int32 {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assign[v] != 0 {
			continue
		}
		if s.phase[v] > 0 {
			return v << 1
		}
		return v<<1 | 1
	}
	return -1
}

// recordLearnt installs the clause in s.learnt: proof log, clause store
// (when binary or longer), and the asserting enqueue.
func (s *Solver) recordLearnt() {
	if s.ProofEnabled {
		ext := make([]Lit, len(s.learnt))
		for i, l := range s.learnt {
			ext[i] = toExternal(l)
		}
		s.proof = append(s.proof, ext)
	}
	if len(s.learnt) == 1 {
		s.uncheckedEnqueue(s.learnt[0], -1)
		return
	}
	ci := s.store(s.learnt)
	s.uncheckedEnqueue(s.learnt[0], ci)
}

// emitEmpty closes a refutation with the empty clause (idempotent).
func (s *Solver) emitEmpty() {
	if !s.ProofEnabled {
		return
	}
	if n := len(s.proof); n > 0 && len(s.proof[n-1]) == 0 {
		return
	}
	s.proof = append(s.proof, []Lit{})
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,...
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// Solve runs the CDCL search to completion (or to MaxConflicts). After
// Sat, Value and Model read the satisfying assignment; after Unsat with
// ProofEnabled, Proof returns a checkable refutation.
func (s *Solver) Solve() Status {
	s.cancelUntil(0)
	if s.unsat {
		s.emitEmpty()
		return Unsat
	}
	const restartUnit = 64
	var conflicts, sinceRestart int64
	restarts := int64(1)
	for {
		confl := s.propagate()
		if confl >= 0 {
			conflicts++
			sinceRestart++
			if s.decisionLevel() == 0 {
				s.unsat = true
				s.emitEmpty()
				return Unsat
			}
			bt := s.analyze(confl)
			s.cancelUntil(bt)
			s.recordLearnt()
			s.varInc /= 0.95
			if s.MaxConflicts > 0 && conflicts >= s.MaxConflicts {
				s.cancelUntil(0)
				return Unknown
			}
			if sinceRestart >= restartUnit*luby(restarts) {
				restarts++
				sinceRestart = 0
				s.cancelUntil(0)
			}
			continue
		}
		l := s.decide()
		if l < 0 {
			return Sat
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(l, -1)
	}
}

// Value returns variable v's value in the model found by the last Sat
// Solve (unassigned variables read false).
func (s *Solver) Value(v int) bool {
	if v < 1 || v > s.nVars {
		return false
	}
	return s.assign[v-1] == 1
}

// Model returns the model as a 1-indexed slice (index 0 unused).
func (s *Solver) Model() []bool {
	m := make([]bool, s.nVars+1)
	for v := 1; v <= s.nVars; v++ {
		m[v] = s.Value(v)
	}
	return m
}

// Proof returns the RUP derivation accumulated so far (ending with the
// empty clause after an Unsat verdict). The slice aliases solver state;
// callers must not mutate it.
func (s *Solver) Proof() Proof { return s.proof }

// Order heap: max-heap on (activity, then smaller variable index).

func (s *Solver) heapLess(a, b int32) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return a < b
}

func (s *Solver) heapSwap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.heapPos[s.heap[i]] = int32(i)
	s.heapPos[s.heap[j]] = int32(j)
}

func (s *Solver) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.heapLess(s.heap[i], s.heap[p]) {
			return
		}
		s.heapSwap(i, p)
		i = p
	}
}

func (s *Solver) heapDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(s.heap) && s.heapLess(s.heap[l], s.heap[best]) {
			best = l
		}
		if r < len(s.heap) && s.heapLess(s.heap[r], s.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		s.heapSwap(i, best)
		i = best
	}
}

func (s *Solver) heapPush(v int32) {
	if s.heapPos[v] >= 0 {
		return
	}
	s.heap = append(s.heap, v)
	s.heapPos[v] = int32(len(s.heap) - 1)
	s.heapUp(len(s.heap) - 1)
}

func (s *Solver) heapPop() int32 {
	v := s.heap[0]
	last := len(s.heap) - 1
	s.heapSwap(0, last)
	s.heap = s.heap[:last]
	s.heapPos[v] = -1
	if last > 0 {
		s.heapDown(0)
	}
	return v
}
