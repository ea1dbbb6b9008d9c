package atpg

import (
	"context"
	"fmt"

	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
)

// This file is the one generation driver behind GenerateOBDTestsCtx and
// friends, with checkpoint/resume built in. Its commit loop settles faults
// strictly in list order, and the verdict committed for fault i depends
// only on (circuit, faults[i], options) plus the tests committed at
// indices before i — speculation runs ahead in parallel but its results
// are discarded whenever an earlier commit drop-covers the fault. That
// dependency structure makes any Results prefix a complete checkpoint:
// re-seeding the fault-dropping state by regrading the prefix's tests
// against the uncommitted tail reconstructs the loop state at the
// boundary exactly, so a resumed run commits bit-identical Results,
// Tests and Coverage to an uninterrupted one. The durable job runtime
// (internal/jobs) leans on this to survive crashes mid-generation.
//
// The Resume entry points also serve as bounded-segment drivers: upto
// caps how many faults are committed before returning, so a caller can
// alternate generate-segment / persist-checkpoint without cancelling
// and restarting the scheduler.

// genSet is a fault model's test set as the driver sees it. Its
// underlying type is that of TestSet (T = TwoPattern) and StuckAtTestSet
// (T = Pattern), so the entry points convert their sets in place.
type genSet[T any] struct {
	Tests    []T
	Results  []Result
	Coverage Coverage
}

// genModel is one fault model's part of the generation driver.
type genModel[F fmt.Stringer, T any] struct {
	// gen runs the model's generator for one fault on a pool worker; the
	// test is meaningful only under Detected.
	gen func(f F, pv *podemView) (T, Status)
	// grader returns the first-detecting lookup over a test list: whether
	// some test detects f, and the pair simulations that took.
	grader func(tests []T) func(f F) (bool, int64)
	// grade grades the final test set against the whole fault list.
	grade func(ctx context.Context, c *logic.Circuit, faults []F, tests []T) (Coverage, error)
	// pair, when set, is the test a Detected Result carries. Models
	// without it (stuck-at) keep their tests in the set only.
	pair func(t T) *TwoPattern
	// prune, when set, marks the faults of a shard that are proved
	// untestable before generation (OBD Options.Prune).
	prune func(fs []F) []bool
	// resolve, when set, settles an Aborted verdict in the sequential
	// commit loop (OBD Options.SATFallback), so speculation results stay
	// advisory and worker counts cannot change what is committed.
	resolve func(f F) (T, Status)
}

// checkResumePrefix validates that results is a committable prefix of
// an n-fault list: not longer than the list, and naming the same faults
// in the same order. It returns the resume index.
func checkResumePrefix(n int, results []Result, faultName func(i int) string) (int, error) {
	start := len(results)
	if start > n {
		return 0, &ResumeMismatchError{Index: -1,
			Reason: fmt.Sprintf("prior has %d results, fault list has %d faults", start, n)}
	}
	for i := range results {
		if want := faultName(i); results[i].Fault != want {
			return 0, &ResumeMismatchError{Index: i,
				Reason: fmt.Sprintf("prior result %d is for fault %q, fault list has %q", i, results[i].Fault, want)}
		}
	}
	return start, nil
}

// checkPriorTests cross-checks a prior's test count against its Results:
// exactly one test per Result carrying one when Results carry their
// tests, else at most one per Detected Result.
func checkPriorTests(results []Result, tests int, carried bool) error {
	withTest, detected := 0, 0
	for i := range results {
		if results[i].Test != nil {
			withTest++
		}
		if results[i].Status == Detected {
			detected++
		}
	}
	if carried && withTest != tests {
		return &ResumeMismatchError{Index: -1,
			Reason: fmt.Sprintf("prior has %d tests but %d generated results", tests, withTest)}
	}
	if !carried && tests > detected {
		return &ResumeMismatchError{Index: -1,
			Reason: fmt.Sprintf("prior has %d tests but only %d detected results", tests, detected)}
	}
	return nil
}

// clampUpto normalizes the segment bound: negative or oversized means
// run to completion, and a bound inside the committed prefix is a no-op
// segment.
func clampUpto(upto, start, n int) int {
	if upto < 0 || upto > n {
		upto = n
	}
	if upto < start {
		upto = start
	}
	return upto
}

// resumeTests is the generation driver: prefix check, fault-dropping
// state regrade, untestability pruning, then the speculate/commit loop
// with fault dropping, and the final grade once the whole list is
// committed.
// The returned set is nil only when the circuit or the prior is
// rejected; otherwise it holds every committed Result, also alongside a
// cancellation error.
func resumeTests[F fmt.Stringer, T any](ctx context.Context, s *Scheduler, c *logic.Circuit, opt *Options, faults []F, m genModel[F, T], prior *genSet[T], upto int) (*genSet[T], error) {
	if err := ensureValid(c); err != nil {
		return nil, err
	}
	n := len(faults)
	ts := &genSet[T]{}
	start := 0
	if prior != nil {
		var err error
		start, err = checkResumePrefix(n, prior.Results, func(i int) string { return faults[i].String() })
		if err != nil {
			return nil, err
		}
		if err := checkPriorTests(prior.Results, len(prior.Tests), m.pair != nil); err != nil {
			return nil, err
		}
		ts.Tests = append(ts.Tests, prior.Tests...)
		ts.Results = append(ts.Results, prior.Results...)
	}
	upto = clampUpto(upto, start, n)
	pv := newPodemView(c, opt)
	covered := make([]bool, n)
	done := make([]bool, n)
	specT := make([]T, n)
	specSt := make([]Status, n)
	specErr := make([]error, n)
	batch := genBatch(s.WorkerCount())
	if opt.BacktrackSink != nil {
		batch = 1
	}
	// Re-seed the fault-dropping state for the uncommitted tail:
	// covered[j] at commit time means "a test committed before index j
	// detects fault j", and every committed test precedes every
	// uncommitted index, so regrading the prefix's tests reconstructs
	// the loop state at the boundary exactly.
	if opt.FaultDropping && len(ts.Tests) > 0 && start < n {
		first := m.grader(ts.Tests)
		tail := n - start
		err := s.runCtx(ctx, tail, gradeGrain(tail, s.WorkerCount()), func(lo, hi int, ws *WorkerStats) {
			for k := lo; k < hi; k++ {
				var pairs int64
				covered[start+k], pairs = first(faults[start+k])
				ws.Items++
				ws.Pairs += pairs
			}
		})
		if err != nil {
			return ts, err
		}
	}
	if m.prune != nil {
		// Untestability proofs settle tail faults before the generator
		// sees them (committed indices already carry their verdicts),
		// sharded as the regrade above; the PODEM view built the lazy
		// index, which is not safe to build from several workers at
		// once. A shard that panics leaves its faults unpruned.
		tail := n - start
		pruned := make([]bool, tail)
		err := s.runCtx(ctx, tail, gradeGrain(tail, s.WorkerCount()), func(lo, hi int, ws *WorkerStats) {
			_ = protect(func() error {
				copy(pruned[lo:hi], m.prune(faults[start+lo:start+hi]))
				return nil
			})
			ws.Items += int64(hi - lo)
		})
		if err != nil {
			return ts, err
		}
		for k, p := range pruned {
			if p {
				done[start+k] = true
				specSt[start+k] = Untestable
			}
		}
	}
	for i := start; i < upto; i++ {
		if err := ctx.Err(); err != nil {
			return ts, err
		}
		name := faults[i].String()
		if covered[i] {
			ts.Results = append(ts.Results, Result{Fault: name, Status: Detected})
			continue
		}
		if !done[i] {
			s.speculate(ctx, i, batch, covered, done, func(j int) {
				specErr[j] = protect(func() error {
					specT[j], specSt[j] = m.gen(faults[j], pv)
					return nil
				})
			})
			if !done[i] { // speculation cut short by cancellation
				return ts, ctx.Err()
			}
		}
		t, st := specT[i], specSt[i]
		if specErr[i] != nil {
			ts.Results = append(ts.Results, Result{Fault: name, Status: Errored, Err: &ItemError{Index: i, Err: specErr[i]}})
			continue
		}
		if st == Aborted && m.resolve != nil {
			t, st = m.resolve(faults[i])
		}
		res := Result{Fault: name, Status: st}
		if st == Detected {
			if m.pair != nil {
				res.Test = m.pair(t)
			}
			ts.Tests = append(ts.Tests, t)
			if opt.FaultDropping {
				drop(ctx, s, faults, covered, i, m.grader([]T{t}))
			}
		}
		ts.Results = append(ts.Results, res)
	}
	if upto < n {
		return ts, ctx.Err()
	}
	cov, err := m.grade(ctx, c, faults, ts.Tests)
	if err != nil {
		return ts, err
	}
	ts.Coverage = cov
	return ts, nil
}

// drop marks every fault at or after index from that a new test detects,
// first being the model's grader over that one test, sharding the drop
// simulation across the pool. A cancelled drop leaves covered partially
// updated; the commit loops re-check ctx before the next item commits,
// so the partial state is never read.
func drop[F any](ctx context.Context, s *Scheduler, faults []F, covered []bool, from int, first func(F) (bool, int64)) {
	m := len(faults) - from
	_ = s.runCtx(ctx, m, gradeGrain(m, s.WorkerCount()), func(lo, hi int, ws *WorkerStats) {
		for k := lo; k < hi; k++ {
			if j := from + k; !covered[j] {
				covered[j], _ = first(faults[j])
			}
			ws.Pairs++
		}
	})
}

// obdGrader is the OBD first-detecting grader: the event-driven engine
// over the whole test list, charging every pair per fault.
func obdGrader(c *logic.Circuit) func(tests []TwoPattern) func(fault.OBD) (bool, int64) {
	return func(tests []TwoPattern) func(fault.OBD) (bool, int64) {
		pg := NewPairGrader(c, tests)
		return func(f fault.OBD) (bool, int64) { return pg.Detects(f), int64(len(tests)) }
	}
}

// scanGrader is the first-detecting grader of the scalar models: the
// tests are scanned in list order with the model's Detects oracle,
// charging the tests scanned.
func scanGrader[F, T any](c *logic.Circuit, detects func(*logic.Circuit, F, T) bool) func(tests []T) func(F) (bool, int64) {
	return func(tests []T) func(F) (bool, int64) {
		return func(f F) (bool, int64) {
			for ti := range tests {
				if detects(c, f, tests[ti]) {
					return true, int64(ti + 1)
				}
			}
			return false, int64(len(tests))
		}
	}
}

// pairRef is the Result test of the two-pattern models.
func pairRef(tp TwoPattern) *TwoPattern { return &tp }

// pairValue unwraps a two-pattern generator's result (nil unless
// Detected).
func pairValue(tp *TwoPattern, st Status) (TwoPattern, Status) {
	if tp == nil {
		return TwoPattern{}, st
	}
	return *tp, st
}

// ResumeOBDTestsCtx continues an OBD generation run from a previously
// committed prefix. prior carries the Results (and their Tests) of an
// earlier Resume or cancelled Generate call over the same circuit,
// fault list and options; nil (or empty) starts from scratch. The run
// commits faults up to index upto (exclusive; pass len(faults) or -1 to
// finish) and returns the extended set — Coverage is graded only when
// the whole list is committed, and a partial set's Coverage stays zero.
//
// Chaining segments over any boundaries yields Tests, Results and
// Coverage bit-identical to a single uninterrupted GenerateOBDTestsCtx
// with the same inputs, for any worker count. A prior that does not
// match the fault list is rejected with a *ResumeMismatchError; prior
// itself is never mutated.
func (s *Scheduler) ResumeOBDTestsCtx(ctx context.Context, c *logic.Circuit, faults []fault.OBD, opt *Options, prior *TestSet, upto int) (*TestSet, error) {
	if opt == nil {
		opt = DefaultOptions()
	}
	m := genModel[fault.OBD, TwoPattern]{
		gen: func(f fault.OBD, pv *podemView) (TwoPattern, Status) {
			return pairValue(generateOBDTestWith(c, f, opt, pv))
		},
		grader: obdGrader(c),
		grade:  s.GradeOBDCtx,
		pair:   pairRef,
	}
	if opt.Prune {
		m.prune = func(fs []fault.OBD) []bool {
			//obdcheck:allow paniccontract — the encoder's DFF panic is unreachable: resumeTests rejects DFF-bearing circuits with a typed *SequentialCircuitError before pruning
			vs := netcheck.ProveOBDExactList(c, fs, netcheck.DefaultExactBudget)
			out := make([]bool, len(vs))
			for i, v := range vs {
				out[i] = v.Untestable()
			}
			return out
		}
	}
	if opt.SATFallback {
		m.resolve = func(f fault.OBD) (TwoPattern, Status) { return pairValue(satResolveOBD(c, f, opt)) }
	}
	ts, err := resumeTests(ctx, s, c, opt, faults, m, (*genSet[TwoPattern])(prior), upto)
	return (*TestSet)(ts), err
}

// ResumeTransitionTestsCtx continues a transition-fault generation run
// from a committed prefix (see ResumeOBDTestsCtx for the segment and
// bit-identity contract).
func (s *Scheduler) ResumeTransitionTestsCtx(ctx context.Context, c *logic.Circuit, faults []fault.Transition, opt *Options, prior *TestSet, upto int) (*TestSet, error) {
	if opt == nil {
		opt = DefaultOptions()
	}
	m := genModel[fault.Transition, TwoPattern]{
		gen: func(f fault.Transition, pv *podemView) (TwoPattern, Status) {
			return pairValue(generateTransitionTestWith(c, f, opt, pv))
		},
		grader: scanGrader(c, DetectsTransition),
		grade:  s.GradeTransitionCtx,
		pair:   pairRef,
	}
	ts, err := resumeTests(ctx, s, c, opt, faults, m, (*genSet[TwoPattern])(prior), upto)
	return (*TestSet)(ts), err
}

// ResumeStuckAtTestsCtx continues a stuck-at generation run from a
// committed prefix (see ResumeOBDTestsCtx for the segment and
// bit-identity contract). Stuck-at Results never carry a Test pointer,
// so the prefix check bounds the test list by the Detected count
// instead of an exact cross-check.
func (s *Scheduler) ResumeStuckAtTestsCtx(ctx context.Context, c *logic.Circuit, faults []fault.StuckAt, opt *Options, prior *StuckAtTestSet, upto int) (*StuckAtTestSet, error) {
	if opt == nil {
		opt = DefaultOptions()
	}
	m := genModel[fault.StuckAt, Pattern]{
		gen: func(f fault.StuckAt, pv *podemView) (Pattern, Status) {
			return generateStuckAtTestWith(c, f, opt, pv)
		},
		grader: scanGrader(c, DetectsStuckAt),
		grade:  s.GradeStuckAtCtx,
	}
	ts, err := resumeTests(ctx, s, c, opt, faults, m, (*genSet[Pattern])(prior), upto)
	return (*StuckAtTestSet)(ts), err
}
