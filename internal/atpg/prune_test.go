package atpg

import (
	"math/rand"
	"testing"

	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
)

// exactUntestable is the Prune mask: true where netcheck's exact prover
// proves the fault untestable under the budget Prune uses.
func exactUntestable(c *logic.Circuit, faults []fault.OBD) []bool {
	mask := make([]bool, len(faults))
	for i, v := range netcheck.ProveOBDExactList(c, faults, netcheck.DefaultExactBudget) {
		mask[i] = v.Untestable()
	}
	return mask
}

// TestPruneAgreesWithSearch checks the Prune contract on the paper's
// full adder, c432 (also with a backtrack limit that makes PODEM abort)
// and seeded random circuits: the pruned run must produce the same
// verdict for every fault (the only permitted drift is a would-be
// Aborted settling as Untestable) and identical coverage, and the
// faults it settles without a PODEM verdict of their own are exactly
// the exact prover's untestable set.
func TestPruneAgreesWithSearch(t *testing.T) {
	sched := NewScheduler(0)
	c432, err := logic.ParseFile("../../testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	type tc struct {
		c  *logic.Circuit
		bt int // PODEM backtrack limit (0 = default)
	}
	cases := []tc{{cells.FullAdderSumLogic(), 0}, {c432, 0}, {c432, 1}}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cases = append(cases, tc{c: logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 4 + rng.Intn(6), Gates: 10 + rng.Intn(30), Primitive: true})})
	}
	drift := 0
	for _, k := range cases {
		c := k.c
		faults, _ := fault.OBDUniverse(c)
		opt := DefaultOptions()
		if k.bt > 0 {
			opt.MaxBacktracks = k.bt
		}
		plain := must(sched.GenerateOBDTests(c, faults, opt))
		opt.Prune = true
		pruned := must(sched.GenerateOBDTests(c, faults, opt))

		if len(plain.Results) != len(pruned.Results) {
			t.Fatalf("%s: result lengths differ: %d vs %d", c.Name, len(plain.Results), len(pruned.Results))
		}
		for i := range plain.Results {
			a, b := plain.Results[i], pruned.Results[i]
			if a.Status == b.Status {
				continue
			}
			if a.Status == Aborted && b.Status == Untestable {
				drift++
				continue // prover settled what the search gave up on
			}
			t.Errorf("%s: %s: status %v without pruning, %v with", c.Name, a.Fault, a.Status, b.Status)
		}
		if plain.Coverage.String() != pruned.Coverage.String() {
			t.Errorf("%s: coverage drifted: %v vs %v", c.Name, plain.Coverage, pruned.Coverage)
		}
		for i, m := range exactUntestable(c, faults) {
			st := pruned.Results[i].Status
			if m && st != Untestable {
				t.Errorf("%s: %s: proved untestable but status %v", c.Name, faults[i], st)
			}
			if !m && st == Untestable && plain.Results[i].Status != Untestable {
				t.Errorf("%s: %s: pruned without an untestability proof", c.Name, faults[i])
			}
		}
	}
	if drift == 0 {
		t.Error("no Aborted verdict settled as Untestable; the drift path was not exercised")
	}
}

// TestPruneWorkerInvariance extends the scheduler's determinism contract
// to pruned runs: any worker count, bit-identical output.
func TestPruneWorkerInvariance(t *testing.T) {
	c := cells.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(c)
	opt := DefaultOptions()
	opt.Prune = true

	ref := must(NewScheduler(1).GenerateOBDTests(c, faults, opt))
	for _, workers := range []int{2, 4, 8} {
		got := must(NewScheduler(workers).GenerateOBDTests(c, faults, opt))
		if len(got.Results) != len(ref.Results) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got.Results), len(ref.Results))
		}
		for i := range ref.Results {
			if got.Results[i] != ref.Results[i] && (got.Results[i].Status != ref.Results[i].Status ||
				got.Results[i].Fault != ref.Results[i].Fault) {
				t.Fatalf("workers=%d: result %d differs: %+v vs %+v", workers, i, got.Results[i], ref.Results[i])
			}
		}
		if got.Coverage.String() != ref.Coverage.String() {
			t.Fatalf("workers=%d: coverage %v, want %v", workers, got.Coverage, ref.Coverage)
		}
	}
}

// TestPruneSingleFault checks the single-fault entry point honors Prune,
// also on c432 at one backtrack, where PODEM alone aborts on a fault the
// exact prover proves untestable.
func TestPruneSingleFault(t *testing.T) {
	c432, err := logic.ParseFile("../../testdata/c432.bench")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*logic.Circuit{cells.FullAdderSumLogic(), c432} {
		faults, _ := fault.OBDUniverse(c)
		opt := DefaultOptions()
		opt.Prune = true
		opt.MaxBacktracks = 1
		for i, m := range exactUntestable(c, faults) {
			if !m {
				continue
			}
			if tp, st := GenerateOBDTest(c, faults[i], opt); st != Untestable || tp != nil {
				t.Fatalf("%s: GenerateOBDTest with Prune returned (%v, %v)", faults[i], tp, st)
			}
		}
	}
}

// TestProverPoolDropsPanicked: a prover whose call panicked is not put
// back in the view's pool, so the next caller gets a fresh one.
func TestProverPoolDropsPanicked(t *testing.T) {
	c := cells.FullAdderSumLogic()
	pv := newPodemView(c, DefaultOptions())
	var built []any
	newProver := pv.provers.New
	pv.provers.New = func() any {
		built = append(built, newProver())
		return built[len(built)-1]
	}
	faults, _ := fault.OBDUniverse(c)
	bad := faults[0]
	bad.Gate = nil // naming the fault panics
	if err := protect(func() error { pv.prove(bad); return nil }); err == nil {
		t.Fatal("proving a fault without a gate did not panic")
	}
	if len(built) != 1 {
		t.Fatalf("%d provers built for one call", len(built))
	}
	if p := pv.provers.Get(); p == built[0] {
		t.Fatal("the prover whose call panicked went back into the pool")
	}
}

func benchGenerate(b *testing.B, c *logic.Circuit, prune bool) {
	faults, _ := fault.OBDUniverse(c)
	opt := DefaultOptions()
	opt.Prune = prune
	pruned := 0
	if prune {
		for _, m := range exactUntestable(c, faults) {
			if m {
				pruned++
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		must(NewScheduler(0).GenerateOBDTests(c, faults, opt))
	}
	b.StopTimer()
	if prune {
		b.ReportMetric(float64(pruned)/float64(len(faults)), "pruned-frac")
	}
}

// BenchmarkGenerateUnpruned/Pruned measure what the exact prover saves
// (or costs) PODEM. The redundant full adder is where pruning pays —
// 13/78 faults never enter the search; the irredundant ripple-carry
// adder bounds the overhead of proving nothing (see EXPERIMENTS.md).
func BenchmarkGenerateUnpruned(b *testing.B) {
	b.Run("fulladder", func(b *testing.B) { benchGenerate(b, cells.FullAdderSumLogic(), false) })
	b.Run("rca4", func(b *testing.B) { benchGenerate(b, logic.RippleCarryAdder(4), false) })
}

func BenchmarkGeneratePruned(b *testing.B) {
	b.Run("fulladder", func(b *testing.B) { benchGenerate(b, cells.FullAdderSumLogic(), true) })
	b.Run("rca4", func(b *testing.B) { benchGenerate(b, logic.RippleCarryAdder(4), true) })
}
