package atpg

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

// This file is the goroutine-parallel driver layer over the scalar and
// 64-way bit-parallel fault-simulation substrates. A Scheduler shards
// fault lists (and the speculative test-generation work) across a worker
// pool with a determinism contract: every method returns results
// bit-identical to the single-worker sequential path regardless of worker
// count. The contract holds because
//
//   - shards are index ranges pulled from an atomic cursor, and each
//     worker writes only the result slots of its own range;
//   - merges walk the slots in input order, so Coverage.Undetected, test
//     lists and Results keep the sequential ordering;
//   - the generation loops commit strictly in fault order: tests are
//     produced speculatively in parallel, but a speculated test whose
//     fault turns out to be drop-covered by an earlier committed test is
//     discarded — exactly the test the sequential loop never generates.
//
// The layer is additionally hardened for long-running campaigns:
//
//   - every batch entry point reports misuse (an invalid circuit, an
//     oversized enumeration) as a typed error instead of panicking;
//   - the Ctx variants observe context cancellation between work chunks
//     and return promptly with a deterministic prefix of the results;
//   - ForEachCtx recovers worker panics into per-item *PanicError values,
//     so one poisoned item cannot abort the run or perturb the other
//     items' result slots.

// WorkerStats aggregates one worker's share of the work.
type WorkerStats struct {
	Worker int           // worker index within the pool
	Items  int64         // faults graded / generation attempts
	Pairs  int64         // pattern(-pair) simulations, bit-parallel lanes counted individually
	Busy   time.Duration // wall time spent inside work chunks
}

// String implements fmt.Stringer.
func (ws WorkerStats) String() string {
	return fmt.Sprintf("worker %d: %d items, %d pair-sims, busy %s",
		ws.Worker, ws.Items, ws.Pairs, ws.Busy.Round(time.Microsecond))
}

// Scheduler is a deterministic multicore fault-simulation and ATPG
// driver, and the one way to run batch grading and generation. The zero
// value is ready to use and sizes the pool to runtime.GOMAXPROCS(0); a
// nil *Scheduler works like the zero value (it collects no stats). A
// Scheduler may be reused across calls; the methods themselves must not
// be invoked concurrently with each other when CollectStats is set (the
// counters are merged under a mutex, but interleaved runs would blur
// attribution).
type Scheduler struct {
	Workers      int  // pool size; <=0 means runtime.GOMAXPROCS(0)
	CollectStats bool // accumulate per-worker counters (see Stats)

	mu    sync.Mutex
	stats []WorkerStats
}

// NewScheduler returns a scheduler with the given worker count
// (0 = all cores).
func NewScheduler(workers int) *Scheduler { return &Scheduler{Workers: workers} }

// WorkerCount returns the effective pool size.
func (s *Scheduler) WorkerCount() int {
	if s == nil || s.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.Workers
}

// Stats returns a copy of the accumulated per-worker counters (empty
// unless CollectStats is set).
func (s *Scheduler) Stats() []WorkerStats {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]WorkerStats(nil), s.stats...)
}

// ResetStats clears the accumulated counters.
func (s *Scheduler) ResetStats() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = nil
}

func (s *Scheduler) record(wk int, ws WorkerStats) {
	if s == nil || !s.CollectStats {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.stats) <= wk {
		s.stats = append(s.stats, WorkerStats{Worker: len(s.stats)})
	}
	s.stats[wk].Items += ws.Items
	s.stats[wk].Pairs += ws.Pairs
	s.stats[wk].Busy += ws.Busy
}

// gradeGrain picks a chunk size amortizing cursor contention without
// starving the tail of the pool.
func gradeGrain(n, workers int) int {
	g := n / (8 * workers)
	if g < 1 {
		g = 1
	}
	if g > 256 {
		g = 256
	}
	return g
}

// run partitions [0,n) into chunks pulled from an atomic cursor by the
// pool. fn must write only to per-index state within [lo,hi); under that
// discipline the overall result is independent of scheduling order.
func (s *Scheduler) run(n, grain int, fn func(lo, hi int, ws *WorkerStats)) {
	s.runCtx(context.Background(), n, grain, fn) //nolint:errcheck // Background is never cancelled
}

// statsPool holds the one-worker path's WorkerStats: fn may keep the
// pointer it is handed, so a stats value local to runCtx would move to
// the heap on every call.
var statsPool = sync.Pool{New: func() any { return new(WorkerStats) }}

// runCtx is run with cooperative cancellation: workers stop pulling new
// chunks once ctx is done (a chunk in flight still completes, so every
// slot is either fully written or untouched). It returns ctx's error when
// the run was cut short, else nil.
func (s *Scheduler) runCtx(ctx context.Context, n, chunk int, fn func(lo, hi int, ws *WorkerStats)) error {
	if n <= 0 {
		return nil
	}
	done := ctx.Done()
	w := s.WorkerCount()
	if w > n {
		w = n
	}
	if chunk < 1 {
		chunk = 1
	}
	if w <= 1 {
		ws := statsPool.Get().(*WorkerStats)
		defer statsPool.Put(ws)
		*ws = WorkerStats{}
		start := time.Now() //obdcheck:allow timenow — Busy is a stats counter, never a result
		if done == nil {
			fn(0, n, ws)
		} else {
			for lo := 0; lo < n; lo += chunk {
				if ctx.Err() != nil {
					break
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				fn(lo, hi, ws)
			}
		}
		ws.Busy += time.Since(start)
		s.record(0, *ws)
		return ctx.Err()
	}
	var next int64
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			var ws WorkerStats
			for {
				select {
				case <-done:
					s.record(wk, ws)
					return
				default:
				}
				hi := int(atomic.AddInt64(&next, int64(chunk)))
				lo := hi - chunk
				if lo >= n {
					break
				}
				if hi > n {
					hi = n
				}
				start := time.Now() //obdcheck:allow timenow — Busy is a stats counter, never a result
				fn(lo, hi, &ws)
				ws.Busy += time.Since(start)
			}
			s.record(wk, ws)
		}(wk)
	}
	wg.Wait()
	return ctx.Err()
}

// protect runs fn, converting a panic into a *PanicError so a poisoned
// work item is confined to its own result slot.
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	return fn()
}

// ForEach runs fn(i) for every i in [0,n) across the pool. fn must only
// write to per-index state; under that discipline the result is
// deterministic for any worker count. It is the unhardened fast path:
// fn must not panic and the run cannot be cancelled (see ForEachCtx).
func (s *Scheduler) ForEach(n int, fn func(i int)) {
	s.run(n, gradeGrain(n, s.WorkerCount()), func(lo, hi int, ws *WorkerStats) {
		for i := lo; i < hi; i++ {
			fn(i)
			ws.Items++
		}
	})
}

// ForEachCtx is the hardened ForEach: fn may return an error or panic
// (recovered into a *PanicError) without aborting the run or perturbing
// the other items, and cancelling ctx stops the run promptly. The report
// lists per-item failures in index order; after cancellation, the
// completed items' side effects are bit-identical to the same items of
// an uncancelled run.
func (s *Scheduler) ForEachCtx(ctx context.Context, n int, fn func(i int) error) *RunReport {
	rep := &RunReport{N: n, Done: make([]bool, n)}
	errs := make([]error, n)
	rep.Err = s.runCtx(ctx, n, gradeGrain(n, s.WorkerCount()), func(lo, hi int, ws *WorkerStats) {
		for i := lo; i < hi; i++ {
			i := i
			errs[i] = protect(func() error { return fn(i) })
			rep.Done[i] = true
			ws.Items++
		}
	})
	for i, err := range errs {
		if err != nil {
			rep.Errors = append(rep.Errors, &ItemError{Index: i, Err: err})
		}
	}
	return rep
}

// ensureValid levelizes the circuit up-front so the workers never race on
// the lazy validation cache. An invalid circuit is reported as a typed
// *InvalidCircuitError instead of the panic earlier revisions threw, and
// a DFF-bearing circuit as a *SequentialCircuitError: the combinational
// engines would treat flip-flops as transparent, silently grading a
// different machine.
func ensureValid(c *logic.Circuit) error {
	if err := c.Validate(); err != nil {
		return &InvalidCircuitError{Err: err}
	}
	if ffs := c.DFFs(); len(ffs) > 0 {
		return &SequentialCircuitError{DFFs: len(ffs)}
	}
	return nil
}

// mergeCoverage folds per-fault verdict slots into a Coverage, keeping
// the fault-list order of Undetected.
func mergeCoverage(det []bool, name func(i int) string) Coverage {
	cov := Coverage{Total: len(det)}
	for i, d := range det {
		if d {
			cov.Detected++
		} else {
			cov.Undetected = append(cov.Undetected, name(i))
		}
	}
	return cov
}

// GradeOBD fault-simulates a test set against an OBD fault list with the
// levelized event-driven 64-way engine sharded across the pool. The
// Coverage — including the order of Undetected — is identical to the
// scalar GradeOBD for any worker count.
func (s *Scheduler) GradeOBD(c *logic.Circuit, faults []fault.OBD, tests []TwoPattern) (Coverage, error) {
	return s.GradeOBDCtx(context.Background(), c, faults, tests)
}

// GradeOBDCtx is GradeOBD with cooperative cancellation: when ctx is
// cancelled before the grade completes, ctx's error is returned and the
// Coverage is zero — a partial grade would silently understate coverage,
// so none is reported. A completed grade is bit-identical to GradeOBD.
// Every fault is graded on one shared PairGrader and writes only its own
// verdict slot, so the determinism contract holds for any worker count;
// Pairs counts the pair simulations run up to each fault's first
// detecting pair.
func (s *Scheduler) GradeOBDCtx(ctx context.Context, c *logic.Circuit, faults []fault.OBD, tests []TwoPattern) (Coverage, error) {
	if err := ensureValid(c); err != nil {
		return Coverage{}, err
	}
	if len(faults) == 0 {
		return Coverage{Total: 0}, nil
	}
	return gradeFirst(ctx, s, faults, len(tests), NewPairGrader(c, tests).FirstDetecting, fault.OBD.String)
}

// gradeFirst is the sharded grade loop behind every grader: fault i is
// detected when first returns the index of a detecting test among the n
// graded, -1 otherwise. Each fault writes only its own verdict slot, so
// the Coverage is the same for any worker count; Pairs counts the tests
// up to each fault's first detecting one. A cancelled grade reports no
// Coverage.
func gradeFirst[F any](ctx context.Context, s *Scheduler, faults []F, n int, first func(F) int, name func(F) string) (Coverage, error) {
	det := make([]bool, len(faults))
	err := s.runCtx(ctx, len(faults), gradeGrain(len(faults), s.WorkerCount()), func(lo, hi int, ws *WorkerStats) {
		for i := lo; i < hi; i++ {
			idx := first(faults[i])
			det[i] = idx >= 0
			ws.Items++
			if det[i] {
				ws.Pairs += int64(idx + 1)
			} else {
				ws.Pairs += int64(n)
			}
		}
	})
	if err != nil {
		return Coverage{}, err
	}
	return mergeCoverage(det, func(i int) string { return name(faults[i]) }), nil
}

// GradeTransition fault-simulates a test set against transition faults,
// sharding the fault list across the pool.
func (s *Scheduler) GradeTransition(c *logic.Circuit, faults []fault.Transition, tests []TwoPattern) (Coverage, error) {
	return s.GradeTransitionCtx(context.Background(), c, faults, tests)
}

// GradeTransitionCtx is GradeTransition with cooperative cancellation
// (see GradeOBDCtx for the no-partial-coverage contract).
func (s *Scheduler) GradeTransitionCtx(ctx context.Context, c *logic.Circuit, faults []fault.Transition, tests []TwoPattern) (Coverage, error) {
	return scanGradeCtx(ctx, s, c, faults, tests, DetectsTransition, fault.Transition.String)
}

// GradeStuckAt fault-simulates single patterns against stuck-at faults,
// sharding the fault list across the pool.
func (s *Scheduler) GradeStuckAt(c *logic.Circuit, faults []fault.StuckAt, tests []Pattern) (Coverage, error) {
	return s.GradeStuckAtCtx(context.Background(), c, faults, tests)
}

// GradeStuckAtCtx is GradeStuckAt with cooperative cancellation
// (see GradeOBDCtx for the no-partial-coverage contract).
func (s *Scheduler) GradeStuckAtCtx(ctx context.Context, c *logic.Circuit, faults []fault.StuckAt, tests []Pattern) (Coverage, error) {
	return scanGradeCtx(ctx, s, c, faults, tests, DetectsStuckAt, fault.StuckAt.String)
}

// GradeOBDMulti fault-simulates a test set against multi-defect
// ensembles, sharding the ensemble list across the pool.
func (s *Scheduler) GradeOBDMulti(c *logic.Circuit, ensembles [][]fault.OBD, tests []TwoPattern) (Coverage, error) {
	return scanGrade(s, c, ensembles, tests, DetectsOBDMulti, ensembleName)
}

// scanGrade is scanGradeCtx without cancellation.
func scanGrade[F, T any](s *Scheduler, c *logic.Circuit, faults []F, tests []T, detects func(*logic.Circuit, F, T) bool, name func(F) string) (Coverage, error) {
	return scanGradeCtx(context.Background(), s, c, faults, tests, detects, name)
}

// scanGradeCtx is the scalar grader shared by the transition, stuck-at
// and multi-defect models: each fault is detected by the first test, in
// list order, its detects oracle accepts. Faults shard across the pool;
// Pairs counts the tests scanned. A cancelled grade reports no Coverage.
func scanGradeCtx[F, T any](ctx context.Context, s *Scheduler, c *logic.Circuit, faults []F, tests []T, detects func(*logic.Circuit, F, T) bool, name func(F) string) (Coverage, error) {
	if err := ensureValid(c); err != nil {
		return Coverage{}, err
	}
	if len(faults) == 0 {
		return Coverage{Total: 0}, nil
	}
	g := &scanTests[F, T]{c: c, detects: detects, tests: tests}
	return gradeFirst(ctx, s, faults, len(tests), func(f F) int { return g.first(f, 0) }, name)
}

// DetectionCounts returns, per fault, how many pairs of the test set
// detect it, sharding the fault list across the pool. Counts come from
// the event-driven engine's per-lane masks (popcounts), which the
// property tests pin to the scalar DetectsOBD verdicts.
func (s *Scheduler) DetectionCounts(c *logic.Circuit, faults []fault.OBD, tests []TwoPattern) ([]int, error) {
	out := make([]int, len(faults))
	if err := ensureValid(c); err != nil {
		return nil, err
	}
	if len(faults) == 0 {
		return out, nil
	}
	pg := NewPairGrader(c, tests)
	s.run(len(faults), gradeGrain(len(faults), s.WorkerCount()), func(lo, hi int, ws *WorkerStats) {
		for i := lo; i < hi; i++ {
			out[i] = pg.CountDetecting(faults[i])
			ws.Items++
			ws.Pairs += int64(len(tests))
		}
	})
	return out, nil
}

// exhaustiveInputLimit bounds the 2^n first-frame enumeration of
// AnalyzeExhaustive.
const exhaustiveInputLimit = 16

// AnalyzeExhaustive runs the full-enumeration analysis used for the
// Section 4.3 full-adder counts, sharded over the first-frame vectors;
// the merged Pairs/DetectedBy keep the sequential (m1, m2) enumeration
// order. Circuits with more than 16 primary inputs are rejected with a
// typed *InputLimitError.
func (s *Scheduler) AnalyzeExhaustive(c *logic.Circuit, faults []fault.OBD) (*ExhaustiveOBDAnalysis, error) {
	if len(c.Inputs) > exhaustiveInputLimit {
		return nil, &InputLimitError{Inputs: len(c.Inputs), Limit: exhaustiveInputLimit}
	}
	if err := ensureValid(c); err != nil {
		return nil, err
	}
	n := 1 << len(c.Inputs)
	mk := func(m int) Pattern {
		p := make(Pattern, len(c.Inputs))
		for i, in := range c.Inputs {
			p[in] = logic.FromBool(m&(1<<i) != 0)
		}
		return p
	}
	a := &ExhaustiveOBDAnalysis{Circuit: c, Faults: faults, Testable: make([]bool, len(faults))}
	type slot struct {
		pairs    []TwoPattern
		det      [][]int
		testable []bool // nil when this shard detected nothing
	}
	slots := make([]slot, n)
	s.run(n, 1, func(lo, hi int, ws *WorkerStats) {
		for m1 := lo; m1 < hi; m1++ {
			sl := slot{}
			for m2 := 0; m2 < n; m2++ {
				if m1 == m2 {
					continue
				}
				tp := TwoPattern{V1: mk(m1), V2: mk(m2)}
				var det []int
				for fi, f := range faults {
					if DetectsOBD(c, f, tp) {
						det = append(det, fi)
						if sl.testable == nil {
							sl.testable = make([]bool, len(faults))
						}
						sl.testable[fi] = true
					}
				}
				sl.pairs = append(sl.pairs, tp)
				sl.det = append(sl.det, det)
				ws.Pairs += int64(len(faults))
			}
			slots[m1] = sl
			ws.Items++
		}
	})
	for m1 := 0; m1 < n; m1++ {
		a.Pairs = append(a.Pairs, slots[m1].pairs...)
		a.DetectedBy = append(a.DetectedBy, slots[m1].det...)
		if t := slots[m1].testable; t != nil {
			for fi, b := range t {
				if b {
					a.Testable[fi] = true
				}
			}
		}
	}
	return a, nil
}

// speculate fills the generation slots of the faults idxs, farming the
// work out to the pool. gen(j) must write only slot j. Cancelling ctx
// stops the speculation early; slots whose chunks never ran keep
// done[j] == false.
func (s *Scheduler) speculate(ctx context.Context, idxs []int, done []bool, gen func(j int)) {
	s.runCtx(ctx, len(idxs), 1, func(lo, hi int, ws *WorkerStats) { //nolint:errcheck // commit loop re-checks ctx
		for k := lo; k < hi; k++ {
			gen(idxs[k])
			done[idxs[k]] = true
			ws.Items++
		}
	})
}

// genBatch returns the speculation depth for a pool: one fault ahead per
// slot of headroom, and none at all for a single worker (which degrades
// to the plain sequential loop).
func genBatch(workers int) int {
	if workers <= 1 {
		return 1
	}
	return 2 * workers
}

// GenerateOBDTests runs the OBD generator over a fault list with optional
// fault dropping, speculatively generating ahead across the pool. Tests,
// Results and Coverage are bit-identical to the sequential loop for any
// worker count. When Options.BacktrackSink is set the loop stays
// sequential so the backtrack census matches the single-threaded search.
func (s *Scheduler) GenerateOBDTests(c *logic.Circuit, faults []fault.OBD, opt *Options) (*TestSet, error) {
	return s.GenerateOBDTestsCtx(context.Background(), c, faults, opt)
}

// GenerateOBDTestsCtx is GenerateOBDTests with cooperative cancellation:
// when ctx is cancelled the commit loop stops and the partial TestSet is
// returned together with ctx's error. The committed Results are a
// deterministic prefix of the uncancelled run (the partial set's Coverage
// is left zero — grading a cut-short test list would be misleading). A
// per-fault generator panic is confined to that fault's Result (Status
// Errored, Err carrying the *PanicError) without perturbing the others.
// The commit loop lives in ResumeOBDTestsCtx (resume.go); this is the
// from-scratch, run-to-completion entry point.
func (s *Scheduler) GenerateOBDTestsCtx(ctx context.Context, c *logic.Circuit, faults []fault.OBD, opt *Options) (*TestSet, error) {
	return s.ResumeOBDTestsCtx(ctx, c, faults, opt, nil, len(faults))
}

// GenerateTransitionTests runs the transition-fault generator over a
// fault list with optional fault dropping, speculating across the pool
// under the same determinism contract as GenerateOBDTests.
func (s *Scheduler) GenerateTransitionTests(c *logic.Circuit, faults []fault.Transition, opt *Options) (*TestSet, error) {
	return s.GenerateTransitionTestsCtx(context.Background(), c, faults, opt)
}

// GenerateTransitionTestsCtx is GenerateTransitionTests with cooperative
// cancellation and per-fault panic confinement (see GenerateOBDTestsCtx).
// The commit loop lives in ResumeTransitionTestsCtx (resume.go).
func (s *Scheduler) GenerateTransitionTestsCtx(ctx context.Context, c *logic.Circuit, faults []fault.Transition, opt *Options) (*TestSet, error) {
	return s.ResumeTransitionTestsCtx(ctx, c, faults, opt, nil, len(faults))
}

// GenerateStuckAtTests runs the stuck-at generator over a fault list with
// optional fault dropping, speculating across the pool under the same
// determinism contract as GenerateOBDTests.
func (s *Scheduler) GenerateStuckAtTests(c *logic.Circuit, faults []fault.StuckAt, opt *Options) (*StuckAtTestSet, error) {
	return s.GenerateStuckAtTestsCtx(context.Background(), c, faults, opt)
}

// GenerateStuckAtTestsCtx is GenerateStuckAtTests with cooperative
// cancellation and per-fault panic confinement (see GenerateOBDTestsCtx).
// The commit loop lives in ResumeStuckAtTestsCtx (resume.go).
func (s *Scheduler) GenerateStuckAtTestsCtx(ctx context.Context, c *logic.Circuit, faults []fault.StuckAt, opt *Options) (*StuckAtTestSet, error) {
	return s.ResumeStuckAtTestsCtx(ctx, c, faults, opt, nil, len(faults))
}
