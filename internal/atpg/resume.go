package atpg

import (
	"context"
	"fmt"
	"slices"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

// This file is the one generation driver behind GenerateOBDTestsCtx and
// friends, with checkpoint/resume built in. Its commit loop settles faults
// strictly in list order, and the verdict committed for fault i depends
// only on (circuit, faults[i], options) plus the tests committed at
// indices before i — speculation runs ahead in parallel but its results
// are discarded whenever an earlier commit drop-covers the fault.
//
// Fault dropping is lazy. Every test the run commits goes onto one
// per-run test grader (for OBD a PairGrader that packs the tests 64 per
// word), and the loop records, per fault, how many committed tests the
// fault has been checked against. A fault is checked against the tests
// committed since its last check only when the loop is about to read its
// state: to settle it, or to pick it for speculation. The same grader
// then grades the final Coverage.
//
// That dependency structure makes any Results prefix a complete
// checkpoint: the prefix's tests seed the grader of the resumed run and
// its tail faults start unchecked, which is exactly the loop state at the
// boundary, so a resumed run commits bit-identical Results, Tests and
// Coverage to an uninterrupted one. The durable job runtime
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
	// tests returns the run's test grader, holding the prior's tests.
	tests func(prior []T) testGrader[F, T]
	// pair, when set, is the test a Detected Result carries. Models
	// without it (stuck-at) keep their tests in the set only.
	pair func(t T) *TwoPattern
	// prune, when set, reports whether a fault is proved untestable
	// before generation (OBD Options.Prune); it runs on a pool worker.
	prune func(f F, pv *podemView) bool
	// resolve, when set, settles an Aborted verdict in the sequential
	// commit loop (OBD Options.SATFallback), so speculation results stay
	// advisory and worker counts cannot change what is committed.
	resolve func(f F, pv *podemView) (T, Status)
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

// testGrader is a generation run's committed tests, in commit order, as
// its fault-dropping and final-grade oracle. add runs only in the commit
// loop, never while first runs on the pool.
type testGrader[F, T any] interface {
	// add appends a committed test.
	add(t T)
	// first returns the index of the first test at or after from that
	// detects f, or -1. No test before from detects f.
	first(f F, from int) int
	// window is how many stale faults a pool of workers checks at once
	// when rest faults are left to commit.
	window(workers, rest int) int
}

// obdTests is the OBD run grader: one PairGrader that grows by a lane
// per committed pair. It grades from the first block whatever from says;
// the blocks before from hold no detecting lane, and a single worker
// checks each fault once anyway. Since each check grades every block
// again, a pool checks a window of workers × gradeGrain(rest, workers)
// faults rather than every stale fault.
type obdTests struct{ pg *PairGrader }

func (g obdTests) add(tp TwoPattern)            { g.pg.Append(tp.V1, tp.V2) }
func (g obdTests) first(f fault.OBD, _ int) int { return g.pg.FirstDetecting(f) }
func (g obdTests) window(workers, rest int) int { return workers * gradeGrain(rest, workers) }

// scanTests is the run grader of the scalar models: the committed list,
// scanned in order with the model's Detects oracle. A check costs one
// simulation per test it covers however the checks are batched, so a
// pool checks every stale fault at once, which spreads the work as
// evenly as checking every fault against each test when it is committed.
// A smaller window leaves faults past it to be checked against many tests
// in one piece, on one worker.
type scanTests[F, T any] struct {
	c       *logic.Circuit
	detects func(*logic.Circuit, F, T) bool
	tests   []T
}

func (g *scanTests[F, T]) add(t T)                { g.tests = append(g.tests, t) }
func (g *scanTests[F, T]) window(_, rest int) int { return rest }

func (g *scanTests[F, T]) first(f F, from int) int {
	for ti := from; ti < len(g.tests); ti++ {
		if g.detects(g.c, f, g.tests[ti]) {
			return ti
		}
	}
	return -1
}

// scanModel returns the tests hook of a scalar model.
func scanModel[F, T any](c *logic.Circuit, detects func(*logic.Circuit, F, T) bool) func(prior []T) testGrader[F, T] {
	return func(prior []T) testGrader[F, T] {
		return &scanTests[F, T]{c: c, detects: detects, tests: slices.Clone(prior)}
	}
}

// dropState is the commit loop's lazy fault dropping: covered[j] reports
// whether one of the first checked[j] committed tests detects fault j.
// A fault whose state is stale, neither covered nor checked against every
// committed test, is brought up to date only when the loop reads it.
// Without fault dropping nothing is ever checked or covered.
type dropState[F, T any] struct {
	s        *Scheduler
	faults   []F
	g        testGrader[F, T]
	tests    int // tests on g
	dropping bool
	covered  []bool
	checked  []int
	win      []int // the faults of the current check
	idxs     []int // the current speculation candidates
	check    func(lo, hi int, ws *WorkerStats)
}

// newDropState returns the state of a run whose grader g holds the
// prior's tests, every fault unchecked.
func newDropState[F, T any](s *Scheduler, faults []F, g testGrader[F, T], tests int, dropping bool) *dropState[F, T] {
	d := &dropState[F, T]{s: s, faults: faults, g: g, tests: tests, dropping: dropping,
		covered: make([]bool, len(faults)), checked: make([]int, len(faults))}
	d.check = func(lo, hi int, ws *WorkerStats) {
		for _, k := range d.win[lo:hi] {
			from := d.checked[k]
			idx := d.g.first(d.faults[k], from)
			d.covered[k], d.checked[k] = idx >= 0, d.tests
			if idx >= 0 {
				ws.Pairs += int64(idx - from + 1)
			} else {
				ws.Pairs += int64(d.tests - from)
			}
		}
	}
	return d
}

// add commits a test.
func (d *dropState[F, T]) add(t T) {
	d.g.add(t)
	d.tests++
}

// stale reports whether fault j has not been checked against every
// committed test and no test it was checked against detects it.
func (d *dropState[F, T]) stale(j int) bool { return !d.covered[j] && d.checked[j] < d.tests }

// settle brings fault j's state up to date in the commit loop at index
// i. A stale fault is checked together with the stale faults after it:
// one worker checks j alone, a pool checks the grader's window of the
// stale faults from j on, sharded on the pool. Each check charges Pairs
// the tests it covered. A cancelled check leaves every fault either
// checked or untouched and returns ctx's error.
func (d *dropState[F, T]) settle(ctx context.Context, i, j int) error {
	if !d.dropping || !d.stale(j) {
		return nil
	}
	w, size := d.s.WorkerCount(), 1
	if w > 1 {
		size = d.g.window(w, len(d.faults)-i)
	}
	d.win = d.win[:0]
	for k := j; k < len(d.faults) && len(d.win) < size; k++ {
		if d.stale(k) {
			d.win = append(d.win, k)
		}
	}
	return d.s.runCtx(ctx, len(d.win), gradeGrain(len(d.win), w), d.check)
}

// candidates returns the speculation candidates at commit index i: the
// first up-to-batch faults at or after i that are not yet generated and
// that no committed test detects, settling each on the way. The slice is
// reused by the next call.
func (d *dropState[F, T]) candidates(ctx context.Context, i, batch int, done []bool) ([]int, error) {
	d.idxs = d.idxs[:0]
	for j := i; j < len(d.faults) && len(d.idxs) < batch; j++ {
		if done[j] {
			continue
		}
		if err := d.settle(ctx, i, j); err != nil {
			return nil, err
		}
		if !d.covered[j] {
			d.idxs = append(d.idxs, j)
		}
	}
	return d.idxs, nil
}

// resumeTests is the generation driver: prefix check, the run grader
// seeded with the prior's tests, untestability pruning, then the
// speculate/commit loop with lazy fault dropping, and the final grade on
// the run grader once the whole list is committed.
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
	d := newDropState(s, faults, m.tests(ts.Tests), len(ts.Tests), opt.FaultDropping)
	done := make([]bool, n)
	specT := make([]T, n)
	specSt := make([]Status, n)
	specErr := make([]error, n)
	batch := genBatch(s.WorkerCount())
	if opt.BacktrackSink != nil {
		batch = 1
	}
	gen := func(j int) {
		specErr[j] = protect(func() error {
			specT[j], specSt[j] = m.gen(faults[j], pv)
			return nil
		})
	}
	if m.prune != nil {
		// Untestability proofs settle tail faults before the generator
		// sees them (committed indices already carry their verdicts),
		// sharded like a grade; the PODEM view built the lazy
		// index, which is not safe to build from several workers at
		// once. A panic leaves the rest of its shard unpruned.
		tail := n - start
		pruned := make([]bool, tail)
		err := s.runCtx(ctx, tail, gradeGrain(tail, s.WorkerCount()), func(lo, hi int, ws *WorkerStats) {
			_ = protect(func() error {
				for k := lo; k < hi; k++ {
					pruned[k] = m.prune(faults[start+k], pv)
				}
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
		if err := d.settle(ctx, i, i); err != nil {
			return ts, err
		}
		name := faults[i].String()
		if d.covered[i] {
			ts.Results = append(ts.Results, Result{Fault: name, Status: Detected})
			continue
		}
		if !done[i] {
			idxs, err := d.candidates(ctx, i, batch, done)
			if err != nil {
				return ts, err
			}
			s.speculate(ctx, idxs, done, gen)
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
			t, st = m.resolve(faults[i], pv)
		}
		res := Result{Fault: name, Status: st}
		if st == Detected {
			if m.pair != nil {
				res.Test = m.pair(t)
			}
			ts.Tests = append(ts.Tests, t)
			d.add(t)
		}
		ts.Results = append(ts.Results, res)
	}
	if upto < n {
		return ts, ctx.Err()
	}
	cov, err := gradeFirst(ctx, s, faults, len(ts.Tests), func(f F) int { return d.g.first(f, 0) }, F.String)
	if err != nil {
		return ts, err
	}
	ts.Coverage = cov
	return ts, nil
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
			return pairValue(generateOBDTestWith(f, opt, pv))
		},
		tests: func(prior []TwoPattern) testGrader[fault.OBD, TwoPattern] {
			return obdTests{NewPairGrader(c, prior)}
		},
		pair: pairRef,
	}
	if opt.Prune {
		m.prune = func(f fault.OBD, pv *podemView) bool { return pv.prove(f).Untestable() }
	}
	if opt.SATFallback {
		m.resolve = func(f fault.OBD, pv *podemView) (TwoPattern, Status) { return pairValue(satResolveOBD(c, f, opt, pv)) }
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
			return pairValue(generateTransitionTestWith(f, opt, pv))
		},
		tests: scanModel(c, DetectsTransition),
		pair:  pairRef,
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
			return generateStuckAtTestWith(f, opt, pv)
		},
		tests: scanModel(c, DetectsStuckAt),
	}
	ts, err := resumeTests(ctx, s, c, opt, faults, m, (*genSet[Pattern])(prior), upto)
	return (*StuckAtTestSet)(ts), err
}
