package atpg

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// sweepWorkers are the pool sizes every equivalence sweep exercises.
var sweepWorkers = []int{1, 2, 8}

// randomTests builds a test set whose patterns are randomly complete,
// partial or X-bearing, so the sweeps exercise the X-masking paths too.
func randomTests(rng *rand.Rand, c *logic.Circuit, n int) []TwoPattern {
	mk := func() Pattern {
		p := make(Pattern, len(c.Inputs))
		for _, in := range c.Inputs {
			switch rng.Intn(10) {
			case 0:
				// unassigned
			case 1:
				p[in] = logic.X
			default:
				p[in] = logic.FromBool(rng.Intn(2) == 1)
			}
		}
		return p
	}
	out := make([]TwoPattern, n)
	for i := range out {
		out[i] = TwoPattern{V1: mk(), V2: mk()}
	}
	return out
}

// randomFaultSubset samples a random non-empty subsequence of the universe.
func randomFaultSubset(rng *rand.Rand, faults []fault.OBD) []fault.OBD {
	var out []fault.OBD
	for _, f := range faults {
		if rng.Intn(4) > 0 {
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		out = faults
	}
	return out
}

// TestWorkerSweepGradeOBD: for ≥20 random circuits × random fault lists ×
// random (partially-X) test sets, plus the full adder's whole 78-fault
// universe, every worker count yields a Coverage DeepEqual to the scalar
// reference — Undetected ordering included. On the full adder two
// workers pull uneven gradeGrain(78, 2) = 4-fault chunks, the last one a
// 2-fault tail.
func TestWorkerSweepGradeOBD(t *testing.T) {
	check := func(name string, c *logic.Circuit, faults []fault.OBD, tests []TwoPattern) {
		t.Helper()
		want := GradeOBD(c, faults, tests)
		for _, w := range sweepWorkers {
			got := must(NewScheduler(w).GradeOBD(c, faults, tests))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers %d: %+v != scalar %+v", name, w, got, want)
			}
		}
	}
	circuits := 0
	for seed := int64(0); circuits < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 2 + rng.Intn(4), Gates: 2 + rng.Intn(14), Primitive: true})
		universe, _ := fault.OBDUniverse(c)
		if len(universe) == 0 {
			continue
		}
		circuits++
		faults := randomFaultSubset(rng, universe)
		tests := randomTests(rng, c, 1+rng.Intn(150))
		check(fmt.Sprintf("seed %d", seed), c, faults, tests)
	}
	fa := cells.FullAdderSumLogic()
	universe, _ := fault.OBDUniverse(fa)
	if g := gradeGrain(len(universe), 2); len(universe) != 78 || g != 4 {
		t.Fatalf("full adder: %d faults at grain %d, want 78 at 4", len(universe), g)
	}
	check("fulladder", fa, universe, randomTests(rand.New(rand.NewSource(1)), fa, 40))
}

// TestWorkerSweepGradeTransition checks the transition grader against an
// inline scalar loop across worker counts.
func TestWorkerSweepGradeTransition(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 2 + rng.Intn(4), Gates: 2 + rng.Intn(10), Primitive: true})
		faults := fault.TransitionUniverse(c)
		tests := randomTests(rng, c, 1+rng.Intn(60))
		want := Coverage{Total: len(faults)}
		for _, f := range faults {
			hit := false
			for _, tp := range tests {
				if DetectsTransition(c, f, tp) {
					hit = true
					break
				}
			}
			if hit {
				want.Detected++
			} else {
				want.Undetected = append(want.Undetected, f.String())
			}
		}
		for _, w := range sweepWorkers {
			if got := must(NewScheduler(w).GradeTransition(c, faults, tests)); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d workers %d: %+v != scalar %+v", seed, w, got, want)
			}
		}
	}
}

// TestWorkerSweepGradeStuckAt checks the stuck-at grader against an inline
// scalar loop across worker counts.
func TestWorkerSweepGradeStuckAt(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 2 + rng.Intn(4), Gates: 2 + rng.Intn(10), Primitive: true})
		faults := fault.StuckAtUniverse(c)
		tps := randomTests(rng, c, 1+rng.Intn(40))
		tests := make([]Pattern, len(tps))
		for i, tp := range tps {
			tests[i] = tp.V1
		}
		want := Coverage{Total: len(faults)}
		for _, f := range faults {
			hit := false
			for _, p := range tests {
				if DetectsStuckAt(c, f, p) {
					hit = true
					break
				}
			}
			if hit {
				want.Detected++
			} else {
				want.Undetected = append(want.Undetected, f.String())
			}
		}
		for _, w := range sweepWorkers {
			if got := must(NewScheduler(w).GradeStuckAt(c, faults, tests)); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d workers %d: %+v != scalar %+v", seed, w, got, want)
			}
		}
	}
}

// TestWorkerSweepGeneration: the speculative generation loops must produce
// bit-identical TestSets (Tests, Results and Coverage) for any worker
// count — the fault-dropping commit order is part of the contract.
func TestWorkerSweepGeneration(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 2 + rng.Intn(4), Gates: 2 + rng.Intn(10), Primitive: true})
		obdFaults, _ := fault.OBDUniverse(c)
		want := must(NewScheduler(1).GenerateOBDTests(c, obdFaults, nil))
		for _, w := range sweepWorkers[1:] {
			got := must(NewScheduler(w).GenerateOBDTests(c, obdFaults, nil))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d workers %d: OBD generation diverged", seed, w)
			}
		}
		trWant := must(NewScheduler(1).GenerateTransitionTests(c, fault.TransitionUniverse(c), nil))
		saWant := must(NewScheduler(1).GenerateStuckAtTests(c, fault.StuckAtUniverse(c), nil))
		for _, w := range sweepWorkers[1:] {
			if got := must(NewScheduler(w).GenerateTransitionTests(c, fault.TransitionUniverse(c), nil)); !reflect.DeepEqual(got, trWant) {
				t.Fatalf("seed %d workers %d: transition generation diverged", seed, w)
			}
			if got := must(NewScheduler(w).GenerateStuckAtTests(c, fault.StuckAtUniverse(c), nil)); !reflect.DeepEqual(got, saWant) {
				t.Fatalf("seed %d workers %d: stuck-at generation diverged", seed, w)
			}
		}
	}
}

// TestWorkerSweepAnalyzeExhaustive: the sharded enumeration keeps the
// sequential (m1, m2) pair order.
func TestWorkerSweepAnalyzeExhaustive(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 2 + rng.Intn(3), Gates: 2 + rng.Intn(8), Primitive: true})
		faults, _ := fault.OBDUniverse(c)
		want := must(NewScheduler(1).AnalyzeExhaustive(c, faults))
		for _, w := range sweepWorkers[1:] {
			got := must(NewScheduler(w).AnalyzeExhaustive(c, faults))
			if !reflect.DeepEqual(got.Pairs, want.Pairs) ||
				!reflect.DeepEqual(got.DetectedBy, want.DetectedBy) ||
				!reflect.DeepEqual(got.Testable, want.Testable) {
				t.Fatalf("seed %d workers %d: exhaustive analysis diverged", seed, w)
			}
		}
	}
}

// TestWorkerSweepDetectionCounts: per-fault counts are slot-stable.
func TestWorkerSweepDetectionCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 4, Gates: 12, Primitive: true})
	faults, _ := fault.OBDUniverse(c)
	tests := randomTests(rng, c, 80)
	want := must(NewScheduler(1).DetectionCounts(c, faults, tests))
	for _, w := range sweepWorkers[1:] {
		if got := must(NewScheduler(w).DetectionCounts(c, faults, tests)); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: counts diverged", w)
		}
	}
}

// TestSchedulerStats: the optional per-worker counters account for every
// fault exactly once.
func TestSchedulerStats(t *testing.T) {
	c := mustCircuit(t, xorNandSrc)
	faults, _ := fault.OBDUniverse(c)
	ts := must(NewScheduler(0).GenerateOBDTests(c, faults, nil))
	s := NewScheduler(4)
	s.CollectStats = true
	s.GradeOBD(c, faults, ts.Tests)
	var items int64
	for _, ws := range s.Stats() {
		items += ws.Items
		if ws.Busy < 0 {
			t.Fatalf("negative busy time in %s", ws)
		}
	}
	if items != int64(len(faults)) {
		t.Fatalf("stats account for %d items, want %d", items, len(faults))
	}
	s.ResetStats()
	if len(s.Stats()) != 0 {
		t.Fatal("ResetStats left counters behind")
	}
}

// TestSchedulerForEachCoversAllIndices: the exported per-index primitive
// visits every slot exactly once for any worker count.
func TestSchedulerForEachCoversAllIndices(t *testing.T) {
	for _, w := range sweepWorkers {
		n := 1000
		hits := make([]int32, n)
		NewScheduler(w).ForEach(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers %d: index %d visited %d times", w, i, h)
			}
		}
	}
}

// TestNilSchedulerIsGOMAXPROCSPool pins the contract callers without a
// configured pool rely on: a nil *Scheduler runs a GOMAXPROCS-sized pool,
// returns results DeepEqual to a one-worker scheduler's for every batch
// method, and collects no stats.
func TestNilSchedulerIsGOMAXPROCSPool(t *testing.T) {
	var none *Scheduler
	if got, want := none.WorkerCount(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("nil scheduler sizes its pool to %d, want GOMAXPROCS = %d", got, want)
	}
	c := logic.C17()
	obd, _ := fault.OBDUniverse(c)
	tr := fault.TransitionUniverse(c)
	sa := fault.StuckAtUniverse(c)
	ts := must(NewScheduler(1).GenerateOBDTests(c, obd, nil))
	var pats []Pattern
	for _, tp := range ts.Tests {
		pats = append(pats, tp.V1, tp.V2)
	}
	var ensembles [][]fault.OBD
	for i := 0; i+1 < len(obd); i += 3 {
		ensembles = append(ensembles, obd[i:i+2])
	}
	ctx := context.Background()
	cases := []struct {
		name string
		run  func(s *Scheduler) (any, error)
	}{
		{"GenerateOBDTests", func(s *Scheduler) (any, error) { return s.GenerateOBDTests(c, obd, nil) }},
		{"GenerateTransitionTestsCtx", func(s *Scheduler) (any, error) { return s.GenerateTransitionTestsCtx(ctx, c, tr, nil) }},
		{"GenerateStuckAtTests", func(s *Scheduler) (any, error) { return s.GenerateStuckAtTests(c, sa, nil) }},
		{"GradeOBD", func(s *Scheduler) (any, error) { return s.GradeOBD(c, obd, ts.Tests) }},
		{"GradeTransition", func(s *Scheduler) (any, error) { return s.GradeTransition(c, tr, ts.Tests) }},
		{"GradeStuckAt", func(s *Scheduler) (any, error) { return s.GradeStuckAt(c, sa, pats) }},
		{"GradeOBDMulti", func(s *Scheduler) (any, error) { return s.GradeOBDMulti(c, ensembles, ts.Tests) }},
		{"DetectionCounts", func(s *Scheduler) (any, error) { return s.DetectionCounts(c, obd, ts.Tests) }},
		{"AnalyzeExhaustive", func(s *Scheduler) (any, error) { return s.AnalyzeExhaustive(c, obd) }},
		{"GenerateNDetectOBDTests", func(s *Scheduler) (any, error) { return s.GenerateNDetectOBDTests(c, obd, 2) }},
		{"ForEachCtx", func(s *Scheduler) (any, error) {
			out := make([]int, 100)
			rep := s.ForEachCtx(ctx, len(out), func(i int) error {
				out[i] = i * i
				if i%7 == 3 {
					return fmt.Errorf("item %d", i)
				}
				return nil
			})
			return []any{out, rep}, nil
		}},
	}
	for _, tc := range cases {
		want, err := tc.run(NewScheduler(1))
		if err != nil {
			t.Fatalf("%s on one worker: %v", tc.name, err)
		}
		got, err := tc.run(none)
		if err != nil {
			t.Fatalf("%s on a nil scheduler: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: nil scheduler gave %+v, one worker %+v", tc.name, got, want)
		}
	}
	if st := none.Stats(); st != nil {
		t.Fatalf("nil scheduler reports stats %v", st)
	}
}

// must unwraps a (value, error) return in tests, panicking on error; the
// panic fails the calling test with the full error in the log.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
