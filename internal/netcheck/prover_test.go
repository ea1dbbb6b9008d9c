package netcheck

import (
	"math/rand"
	"reflect"
	"testing"

	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// TestProverReuseMatchesFresh: an answer does not depend on what the
// prover answered before. On the committed circuits and on seeded random
// primitive circuits (some with flip-flops, some with enough inputs that
// simulation leaves testable faults to SAT), one prover answers its
// constants and then every fault of the universe, another answers every
// fault in reverse order and then its constants, under the default
// budget and under a one-conflict budget that aborts instances. Both
// must equal fresh Constants and ProveOBDExactList calls, witnesses,
// refutations and proofs included. NewProver must also keep the
// circuit's cached index, since atpg builds provers on pool workers.
func TestProverReuseMatchesFresh(t *testing.T) {
	circuits := []*logic.Circuit{cells.FullAdderSumLogic()}
	for _, path := range []string{"../../testdata/c432.bench", "../../testdata/s27.bench"} {
		c, err := logic.ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opt := logic.RandomOptions{Inputs: 3 + rng.Intn(4), Gates: 8 + rng.Intn(25), Primitive: true}
		if seed%2 == 0 {
			opt.Inputs = 8 + rng.Intn(5)
		}
		if seed%3 == 0 {
			opt.FFs = 1 + rng.Intn(3)
		}
		circuits = append(circuits, logic.RandomCircuit(rng, opt))
	}
	consts, untestable, aborted := 0, 0, 0
	for ci, c := range circuits {
		faults, _ := fault.OBDUniverse(c)
		x := c.Index()
		NewProver(c, 0)
		if c.Index() != x {
			t.Fatalf("circuit %d %s: NewProver dropped the cached index", ci, c.Name)
		}
		for _, budget := range []int{DefaultExactBudget, 1} {
			wantK := NewProver(c, budget).constants()
			if budget == DefaultExactBudget && !reflect.DeepEqual(wantK, Constants(c)) {
				t.Fatalf("circuit %d %s: a fresh prover's constants differ from Constants", ci, c.Name)
			}
			wantV := ProveOBDExactList(c, faults, budget)

			p := NewProver(c, budget)
			gotK := p.constants()
			gotV := make([]ExactVerdict, len(faults))
			for i, f := range faults {
				gotV[i] = p.Prove(f)
			}
			q := NewProver(c, budget)
			revV := make([]ExactVerdict, len(faults))
			for i := len(faults) - 1; i >= 0; i-- {
				revV[i] = q.Prove(faults[i])
			}
			revK := q.constants()

			for _, got := range []struct {
				order string
				k     []Constant
				v     []ExactVerdict
			}{{"constants first", gotK, gotV}, {"faults reversed first", revK, revV}} {
				if !reflect.DeepEqual(got.k, wantK) {
					t.Fatalf("circuit %d %s budget %d, %s: constants %v, fresh %v",
						ci, c.Name, budget, got.order, constantNets(got.k), constantNets(wantK))
				}
				for i := range faults {
					if !reflect.DeepEqual(got.v[i], wantV[i]) {
						t.Fatalf("circuit %d %s budget %d, %s: %s:\n%+v\nfresh:\n%+v",
							ci, c.Name, budget, got.order, faults[i], got.v[i], wantV[i])
					}
				}
			}
			if budget == DefaultExactBudget {
				consts += len(wantK)
			}
			for _, v := range wantV {
				switch {
				case v.Aborted:
					aborted++
				case !v.Testable:
					untestable++
				}
			}
		}
	}
	if consts == 0 || untestable == 0 || aborted == 0 {
		t.Fatalf("%d constants, %d untestable and %d aborted verdicts: a SAT path was not exercised", consts, untestable, aborted)
	}
}
