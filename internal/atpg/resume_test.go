package atpg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

// segmentPlans yields checkpoint boundary layouts to exercise: single
// jump, halves, every-k strides down to single-fault steps.
func segmentPlans(n int) [][]int {
	plans := [][]int{{n}}
	if n > 1 {
		plans = append(plans, []int{n / 2, n})
	}
	for _, k := range []int{1, 3} {
		var plan []int
		for b := k; b < n; b += k {
			plan = append(plan, b)
		}
		plans = append(plans, append(plan, n))
	}
	return plans
}

// TestResumeOBDEquivalence: chaining ResumeOBDTestsCtx over any
// checkpoint boundaries must reproduce the single-shot generation run
// bit-identically — Tests, Results and Coverage — for any worker count
// and with pruning on or off. This is the property the durable job
// runtime's crash recovery rests on.
func TestResumeOBDEquivalence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 2 + rng.Intn(4), Gates: 2 + rng.Intn(10), Primitive: true})
		faults, _ := fault.OBDUniverse(c)
		for _, prune := range []bool{false, true} {
			opt := DefaultOptions()
			opt.Prune = prune
			want := must(NewScheduler(1).GenerateOBDTests(c, faults, opt))
			for _, w := range []int{1, 2, 8} {
				s := NewScheduler(w)
				for _, plan := range segmentPlans(len(faults)) {
					var ts *TestSet
					for _, upto := range plan {
						var err error
						ts, err = s.ResumeOBDTestsCtx(context.Background(), c, faults, opt, ts, upto)
						if err != nil {
							t.Fatalf("seed %d workers %d prune %v: %v", seed, w, prune, err)
						}
					}
					if !reflect.DeepEqual(ts, want) {
						t.Fatalf("seed %d workers %d prune %v plan %v: resumed OBD run diverged", seed, w, prune, plan)
					}
				}
			}
		}
	}
}

// TestResumeTransitionEquivalence: same property for the transition
// generator.
func TestResumeTransitionEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 2 + rng.Intn(4), Gates: 2 + rng.Intn(10), Primitive: true})
		faults := fault.TransitionUniverse(c)
		want := must(NewScheduler(1).GenerateTransitionTests(c, faults, nil))
		for _, w := range []int{1, 2, 8} {
			s := NewScheduler(w)
			for _, plan := range segmentPlans(len(faults)) {
				var ts *TestSet
				for _, upto := range plan {
					var err error
					ts, err = s.ResumeTransitionTestsCtx(context.Background(), c, faults, nil, ts, upto)
					if err != nil {
						t.Fatalf("seed %d workers %d: %v", seed, w, err)
					}
				}
				if !reflect.DeepEqual(ts, want) {
					t.Fatalf("seed %d workers %d plan %v: resumed transition run diverged", seed, w, plan)
				}
			}
		}
	}
}

// TestResumeStuckAtEquivalence: same property for the stuck-at
// generator.
func TestResumeStuckAtEquivalence(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 2 + rng.Intn(4), Gates: 2 + rng.Intn(10), Primitive: true})
		faults := fault.StuckAtUniverse(c)
		want := must(NewScheduler(1).GenerateStuckAtTests(c, faults, nil))
		for _, w := range []int{1, 2, 8} {
			s := NewScheduler(w)
			for _, plan := range segmentPlans(len(faults)) {
				var ts *StuckAtTestSet
				for _, upto := range plan {
					var err error
					ts, err = s.ResumeStuckAtTestsCtx(context.Background(), c, faults, nil, ts, upto)
					if err != nil {
						t.Fatalf("seed %d workers %d: %v", seed, w, err)
					}
				}
				if !reflect.DeepEqual(ts, want) {
					t.Fatalf("seed %d workers %d plan %v: resumed stuck-at run diverged", seed, w, plan)
				}
			}
		}
	}
}

// TestResumeFromCancelledRun: a prefix produced by context cancellation
// is itself a valid checkpoint — resuming it finishes the run
// bit-identically.
func TestResumeFromCancelledRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 4, Gates: 12, Primitive: true})
	faults, _ := fault.OBDUniverse(c)
	s := NewScheduler(2)
	want := must(s.GenerateOBDTests(c, faults, nil))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial, err := s.GenerateOBDTestsCtx(ctx, c, faults, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
	got, err := s.ResumeOBDTestsCtx(context.Background(), c, faults, nil, partial, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resume from cancelled prefix diverged")
	}
}

// TestResumeDoesNotMutatePrior: the checkpoint handed in must come back
// untouched so a caller can retry a failed segment.
func TestResumeDoesNotMutatePrior(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 4, Gates: 10, Primitive: true})
	faults, _ := fault.OBDUniverse(c)
	s := NewScheduler(2)
	prior, err := s.ResumeOBDTestsCtx(context.Background(), c, faults, nil, nil, len(faults)/2)
	if err != nil {
		t.Fatal(err)
	}
	snap := &TestSet{
		Tests:   append([]TwoPattern(nil), prior.Tests...),
		Results: append([]Result(nil), prior.Results...),
	}
	if _, err := s.ResumeOBDTestsCtx(context.Background(), c, faults, nil, prior, -1); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prior.Tests, snap.Tests) || !reflect.DeepEqual(prior.Results, snap.Results) {
		t.Fatal("resume mutated the prior checkpoint")
	}
}

// TestResumeMismatchRejected: a checkpoint from a different fault list
// (or an internally inconsistent one) must be refused with a typed
// *ResumeMismatchError, never silently resumed.
func TestResumeMismatchRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 4, Gates: 10, Primitive: true})
	faults, _ := fault.OBDUniverse(c)
	s := NewScheduler(2)
	good, err := s.ResumeOBDTestsCtx(context.Background(), c, faults, nil, nil, len(faults)/2)
	if err != nil {
		t.Fatal(err)
	}
	var rme *ResumeMismatchError

	tooLong := &TestSet{Results: make([]Result, len(faults)+1)}
	if _, err := s.ResumeOBDTestsCtx(context.Background(), c, faults, nil, tooLong, -1); !errors.As(err, &rme) {
		t.Fatalf("oversized prior: %v, want *ResumeMismatchError", err)
	}

	renamed := &TestSet{
		Tests:   append([]TwoPattern(nil), good.Tests...),
		Results: append([]Result(nil), good.Results...),
	}
	renamed.Results[0].Fault = "not-a-fault"
	if _, err := s.ResumeOBDTestsCtx(context.Background(), c, faults, nil, renamed, -1); !errors.As(err, &rme) {
		t.Fatalf("renamed fault: %v, want *ResumeMismatchError", err)
	}
	if rme.Index != 0 {
		t.Fatalf("mismatch index = %d, want 0", rme.Index)
	}

	extraTests := &TestSet{
		Tests:   append(append([]TwoPattern(nil), good.Tests...), TwoPattern{}),
		Results: append([]Result(nil), good.Results...),
	}
	if _, err := s.ResumeOBDTestsCtx(context.Background(), c, faults, nil, extraTests, -1); !errors.As(err, &rme) {
		t.Fatalf("inconsistent test count: %v, want *ResumeMismatchError", err)
	}
}

// checkDropOracle checks a generation run's commit decisions against a
// scalar oracle: a Detected Result without its own test is detected by a
// test committed before it, and no other Result's fault is, so in
// particular no generated test's fault is detected by an earlier test.
// The committed tests are exactly the Results' tests, in order.
func checkDropOracle[F any](t *testing.T, tag string, c *logic.Circuit, faults []F, ts *TestSet, detects func(*logic.Circuit, F, TwoPattern) bool) {
	t.Helper()
	if len(ts.Results) != len(faults) {
		t.Fatalf("%s: %d results for %d faults", tag, len(ts.Results), len(faults))
	}
	var earlier []TwoPattern
	for i, r := range ts.Results {
		hit := -1
		for k, tp := range earlier {
			if detects(c, faults[i], tp) {
				hit = k
				break
			}
		}
		if dropped := r.Status == Detected && r.Test == nil; dropped != (hit >= 0) {
			t.Fatalf("%s: result %d (%s, %v, test %v) but the first earlier test detecting it is %d of %d",
				tag, i, r.Fault, r.Status, r.Test != nil, hit, len(earlier))
		}
		if r.Test != nil {
			earlier = append(earlier, *r.Test)
		}
	}
	if !reflect.DeepEqual(earlier, ts.Tests) {
		t.Fatalf("%s: %d committed tests, %d tests carried by the Results", tag, len(ts.Tests), len(earlier))
	}
}

// TestFaultDroppingMatchesScalarOracle pins lazy fault dropping to the
// scalar DetectsOBD and DetectsTransition over seeded random circuits
// and c432 (in a seeded fault order), for the two models whose Results
// carry their tests. The one-worker run is checked against the oracle,
// and a pool of three, whose dropping checks run in windows, must commit
// the same set. Transition lists stop at 160 faults: c432's scalar
// transition grading is slow.
func TestFaultDroppingMatchesScalarOracle(t *testing.T) {
	type circuit struct {
		name string
		c    *logic.Circuit
	}
	var circuits []circuit
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 3 + rng.Intn(6), Gates: 10 + rng.Intn(40), Primitive: seed%2 == 0})
		circuits = append(circuits, circuit{fmt.Sprintf("random seed %d", seed), c})
	}
	circuits = append(circuits, circuit{"c432", loadC432(t)})
	for _, cc := range circuits {
		rng := rand.New(rand.NewSource(1))
		obd, _ := fault.OBDUniverse(cc.c)
		rng.Shuffle(len(obd), func(i, j int) { obd[i], obd[j] = obd[j], obd[i] })
		tr := fault.TransitionUniverse(cc.c)
		rng.Shuffle(len(tr), func(i, j int) { tr[i], tr[j] = tr[j], tr[i] })
		tr = tr[:min(len(tr), 160)]
		one, pool := NewScheduler(1), NewScheduler(3)
		want := must(one.GenerateOBDTests(cc.c, obd, nil))
		checkDropOracle(t, cc.name+" OBD", cc.c, obd, want, DetectsOBD)
		if got := must(pool.GenerateOBDTests(cc.c, obd, nil)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s OBD: 3 workers committed a different set than 1", cc.name)
		}
		want = must(one.GenerateTransitionTests(cc.c, tr, nil))
		checkDropOracle(t, cc.name+" transition", cc.c, tr, want, DetectsTransition)
		if got := must(pool.GenerateTransitionTests(cc.c, tr, nil)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s transition: 3 workers committed a different set than 1", cc.name)
		}
	}
}
