package seq

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// oracleGenerate is the scalar search the event-engine search replaced:
// every pair of the style's space is built with buildPair and graded with
// DetectsOBD, in free-bit counter order (exhaustive regime) or in draw
// order from opt.Seed (sampled regime); the first detecting pair wins.
func oracleGenerate(s *Circuit, f fault.OBD, style Style, opt *Options) (*atpg.TwoPattern, atpg.Status, error) {
	bits, err := styleBits(s, style)
	if err != nil {
		return nil, atpg.Errored, err
	}
	if bits <= opt.ExhaustiveMaxIn && bits <= 30 {
		for m := 0; m < 1<<uint(bits); m++ {
			tp, err := buildPair(s, style, func(i int) logic.Value {
				return logic.FromBool(m&(1<<uint(i)) != 0)
			})
			if err != nil {
				return nil, atpg.Errored, err
			}
			if tp != nil && atpg.DetectsOBD(s.Core, f, *tp) {
				return tp, atpg.Detected, nil
			}
		}
		return nil, atpg.Untestable, nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	for k := 0; k < opt.SampleBudget; k++ {
		draw := make([]logic.Value, bits)
		for i := range draw {
			draw[i] = logic.FromBool(rng.Intn(2) == 1)
		}
		tp, err := buildPair(s, style, func(i int) logic.Value { return draw[i] })
		if err != nil {
			return nil, atpg.Errored, err
		}
		if tp != nil && atpg.DetectsOBD(s.Core, f, *tp) {
			return tp, atpg.Detected, nil
		}
	}
	return nil, atpg.Aborted, nil
}

// oracleGenerateTests is the batch form: fault i searched serially with
// the per-fault seed opt.Seed + i*0x9E3779B9.
func oracleGenerateTests(s *Circuit, faults []fault.OBD, style Style, opt *Options) (*Result, error) {
	bits, err := styleBits(s, style)
	if err != nil {
		return nil, err
	}
	out := &Result{Style: style, Statuses: make([]atpg.Status, len(faults)), Exact: bits <= opt.ExhaustiveMaxIn && bits <= 30}
	out.Coverage = atpg.Coverage{Total: len(faults)}
	for i, f := range faults {
		o := *opt
		o.Seed = opt.Seed + int64(i)*0x9E3779B9
		tp, st, err := oracleGenerate(s, f, style, &o)
		if err != nil {
			return nil, err
		}
		out.Statuses[i] = st
		if st == atpg.Detected {
			out.Tests = append(out.Tests, *tp)
			out.Coverage.Detected++
		} else {
			out.Coverage.Undetected = append(out.Coverage.Undetected, f.String())
		}
	}
	return out, nil
}

// TestSearchMatchesScalarOracle pins the packed event-engine search to the
// scalar loop it replaced: on random 3-flip-flop circuits, for every style,
// in the exhaustive regime (default options) and the sampled one
// (ExhaustiveMaxIn just below the style's free bits, a budget that ends
// inside a block of the second chunk), GenerateTestsOn at workers
// {1, 2, 8} must return a Result deep-equal to the oracle's, and Generate
// must return the oracle's pair and status per fault. The fault list
// holds the core's universe plus faults on the DFF netlist's own gates:
// those gates are foreign to s.Core, so they take the grader's DetectsOBD
// fallback through the search's pair materializer.
func TestSearchMatchesScalarOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{
			Inputs: 2 + int(seed%3), Gates: 6 + rng.Intn(8), FFs: 3, Primitive: true})
		s, err := FromCircuit(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		faults, _ := fault.OBDUniverse(s.Core)
		flat, _ := fault.OBDUniverse(c)
		for k := 0; k < 3 && len(flat) > 0; k++ {
			faults = append(faults, flat[rng.Intn(len(flat))])
		}
		for _, style := range []Style{Enhanced, LOS, LOC} {
			bits, err := styleBits(s, style)
			if err != nil {
				t.Fatal(err)
			}
			sampled := &Options{SampleBudget: chunkBlocks*64 + 77, ExhaustiveMaxIn: bits - 1, Seed: seed}
			for _, opt := range []*Options{DefaultOptions(), sampled} {
				want, err := oracleGenerateTests(s, faults, style, opt)
				if err != nil {
					t.Fatal(err)
				}
				if want.Exact != (opt != sampled) {
					t.Fatalf("seed %d %v: oracle Exact=%v for the wrong regime", seed, style, want.Exact)
				}
				for _, workers := range []int{1, 2, 8} {
					got, err := GenerateTestsOn(atpg.NewScheduler(workers), s, faults, style, opt)
					if err != nil {
						t.Fatalf("seed %d %v workers=%d: %v", seed, style, workers, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d %v exact=%v workers=%d: search result differs from the scalar oracle\n got %+v\nwant %+v",
							seed, style, want.Exact, workers, got, want)
					}
				}
				for i := 0; i < len(faults); i += 1 + len(faults)/8 {
					o := *opt
					o.Seed = opt.Seed + int64(i)
					tp, st, err := Generate(s, faults[i], style, &o)
					wtp, wst, werr := oracleGenerate(s, faults[i], style, &o)
					if err != nil || werr != nil {
						t.Fatalf("seed %d %v fault %s: errors %v / %v", seed, style, faults[i], err, werr)
					}
					if st != wst || !reflect.DeepEqual(tp, wtp) {
						t.Fatalf("seed %d %v exact=%v fault %s: Generate %v %v, oracle %v %v",
							seed, style, want.Exact, faults[i], st, tp, wst, wtp)
					}
				}
			}
		}
	}
}

// TestSearchRejectsMisfitChain: a hand-built model whose chain does not
// fit its core fails the launch styles with a typed *ChainError instead
// of grading a different machine, and so does a core that still holds
// flip-flops, under every style.
func TestSearchRejectsMisfitChain(t *testing.T) {
	flat := randomSeq(t, 39)
	withFFs, err := New(flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	flatFaults, _ := fault.OBDUniverse(flat)
	for _, style := range []Style{Enhanced, LOS, LOC} {
		if _, err := GenerateTests(withFFs, flatFaults, style, nil); !errors.As(err, new(*ChainError)) {
			t.Fatalf("DFF-bearing core, %v: got %T (%v), want *ChainError", style, err, err)
		}
	}

	s, err := Accumulator(2)
	if err != nil {
		t.Fatal(err)
	}
	bad := *s
	bad.PIs = bad.PIs[1:] // a core input with neither role
	faults, _ := fault.OBDUniverse(s.Core)
	for _, style := range []Style{LOS, LOC} {
		_, _, err := Generate(&bad, faults[0], style, nil)
		if _, ok := err.(*ChainError); !ok {
			t.Fatalf("%v: got %T (%v), want *ChainError", style, err, err)
		}
	}
	if _, st, err := Generate(&bad, faults[0], Enhanced, nil); err != nil || st == atpg.Errored {
		t.Fatalf("enhanced scan does not use the chain: %v %v", st, err)
	}
}

// TestStyleCoverageMatchesEnumeration: StyleCoverage, now the exhaustive
// regime of the search, equals grading the materialized EnumeratePairs
// space with NewPairGrader — the implementation it replaced — on the
// sequential experiment testbeds and a random 3-flip-flop circuit.
func TestStyleCoverageMatchesEnumeration(t *testing.T) {
	rnd, err := FromCircuit(randomSeq(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	acc, err := Accumulator(2)
	if err != nil {
		t.Fatal(err)
	}
	dbl, err := Doubler(2)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Circuit{"accumulator2": acc, "doubler2": dbl, "random": rnd} {
		faults, _ := fault.OBDUniverse(s.Core)
		for _, style := range []Style{Enhanced, LOS, LOC} {
			space, err := EnumeratePairs(s, style)
			if err != nil {
				t.Fatal(err)
			}
			pg := atpg.NewPairGrader(s.Core, space)
			want := atpg.Coverage{Total: len(faults)}
			for _, f := range faults {
				if pg.Detects(f) {
					want.Detected++
				} else {
					want.Undetected = append(want.Undetected, f.String())
				}
			}
			got, err := StyleCoverage(s, style)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v: StyleCoverage %v, enumerated space %v", name, style, got, want)
			}
		}
	}
	big, err := Accumulator(5) // 11 core inputs: enhanced scan needs 22 free bits
	if err != nil {
		t.Fatal(err)
	}
	if _, err := StyleCoverage(big, Enhanced); !errors.As(err, new(*SpaceLimitError)) {
		t.Fatalf("oversized space: got %T (%v), want *SpaceLimitError", err, err)
	}
}
