// Benchmarks regenerating every data table and figure of the paper. Each
// benchmark iteration runs the complete experiment, so `go test -bench=.`
// both times the reproduction and re-validates every shape check; the
// recorded outputs live in EXPERIMENTS.md.
package gobd_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/exper"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/obd"
	"gobd/internal/spice"
)

func requireClean(b *testing.B, bad []string, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if len(bad) != 0 {
		b.Fatalf("shape violations: %v", bad)
	}
}

// BenchmarkTable1 regenerates Table 1: all four NAND transistors, all five
// breakdown stages, both measurement sequences each (80 transients).
func BenchmarkTable1(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunTable1(p)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkFigure4VTC regenerates Figure 4: inverter DC sweeps per stage.
func BenchmarkFigure4VTC(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunFigure4(p)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkFigure6 regenerates Figure 6: NMOS OBD progression transients.
func BenchmarkFigure6(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunFigure6(p)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkFigure7 regenerates Figure 7: input-specific PMOS detection.
func BenchmarkFigure7(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunFigure7(p)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkFigure9 regenerates Figure 9: four OBD injections into the
// transistor-level full adder with ATPG-justified stimuli.
func BenchmarkFigure9(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunFigure9(p, obd.MBD2)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkExcitationSets regenerates the Section 4.1/5 excitation tables
// and exact minimum covers (NAND, NOR, NAND3, AOI21, INV).
func BenchmarkExcitationSets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.RunExcitationSets()
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkFullAdderATPG regenerates the Section 4.3 census: exhaustive
// two-pattern analysis, greedy cover and PODEM ATPG on the full adder.
func BenchmarkFullAdderATPG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.RunFullAdderCounts()
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkCoverageGap regenerates the traditional-vs-OBD coverage
// comparison on the full adder.
func BenchmarkCoverageGap(b *testing.B) {
	lc := cells.FullAdderSumLogic()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunCoverageGap("fulladder_sum", lc)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkEMvsOBD regenerates the Section 5 EM/OBD set comparison.
func BenchmarkEMvsOBD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.RunEMComparison()
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkDetectionWindow regenerates the Section 4.2 analysis: delay
// along the progression trajectory plus per-slack windows.
func BenchmarkDetectionWindow(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunDetectionWindow(p, 7)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkRuleValidation times the analog cross-validation of the
// excitation rule on NAND2 (30 transients).
func BenchmarkRuleValidation(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunRuleValidation(p, logic.Nand, 2, obd.MBD2)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkIDDQ times the quiescent-current experiment.
func BenchmarkIDDQ(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunIDDQ(p)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkCaptureSweep times the Section 4.2 coverage-vs-capture matrix
// (analog characterization plus timing-simulator grading).
func BenchmarkCaptureSweep(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunCaptureSweep(p)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkScanComparison times the enhanced-scan vs launch-on-shift DFT
// comparison across the benchmark suite.
func BenchmarkScanComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.RunScanComparison()
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkGapSuite times the multi-circuit coverage-gap study.
func BenchmarkGapSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.RunGapSuite()
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkSeqModes times the sequential scan-mode coverage study.
func BenchmarkSeqModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.RunSeqModes()
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkDiagnosis times the fault-dictionary resolution study.
func BenchmarkDiagnosis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.RunDiagnosis()
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkConcurrentSim times the lifetime concurrent-testing race.
func BenchmarkConcurrentSim(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunConcurrentSim(p)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkNDetect times the n-detect hardening study.
func BenchmarkNDetect(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.RunNDetect()
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkATPGGuidance times the SCOAP guidance ablation.
func BenchmarkATPGGuidance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.RunATPGGuidance()
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkScaleRCA8 demonstrates ATPG + bit-parallel grading scale: the
// 8-bit NAND-only ripple-carry adder (72 gates, 288 OBD faults, 17 inputs
// — far beyond exhaustive pair enumeration).
func BenchmarkScaleRCA8(b *testing.B) {
	sched := atpg.NewScheduler(0)
	lc := logic.RippleCarryAdder(8)
	faults, _ := fault.OBDUniverse(lc)
	for i := 0; i < b.N; i++ {
		ts := must(sched.GenerateOBDTests(lc, faults, nil))
		if ts.Coverage.Detected != ts.Coverage.Total {
			b.Fatalf("RCA8 coverage %v, want complete", ts.Coverage)
		}
		par := must(sched.GradeOBD(lc, faults, ts.Tests))
		if par.Detected != ts.Coverage.Detected {
			b.Fatalf("parallel grading disagrees: %v vs %v", par, ts.Coverage)
		}
	}
}

// BenchmarkGradeOBDWorkers measures multicore fault-simulation scaling on
// the 16-bit ripple-carry adder: one fixed test set (the generated pairs
// widened with random complete fills to several 64-lane blocks), graded
// with pools of 1, 2, 4 and 8 workers. The Coverage is bit-identical at
// every width; only the wall clock should move.
func BenchmarkGradeOBDWorkers(b *testing.B) {
	lc := logic.RippleCarryAdder(16)
	faults, _ := fault.OBDUniverse(lc)
	ts := must(atpg.NewScheduler(0).GenerateOBDTests(lc, faults, nil))
	tests := ts.Tests
	rng := rand.New(rand.NewSource(1))
	for len(tests) < 512 {
		mk := func() atpg.Pattern {
			p := make(atpg.Pattern, len(lc.Inputs))
			for _, in := range lc.Inputs {
				p[in] = logic.FromBool(rng.Intn(2) == 1)
			}
			return p
		}
		tests = append(tests, atpg.TwoPattern{V1: mk(), V2: mk()})
	}
	want := must(atpg.NewScheduler(1).GradeOBD(lc, faults, tests))
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprint(w), func(b *testing.B) {
			s := atpg.NewScheduler(w)
			for i := 0; i < b.N; i++ {
				cov := must(s.GradeOBD(lc, faults, tests))
				if cov.Detected != want.Detected {
					b.Fatalf("workers %d: coverage %v, want %v", w, cov, want)
				}
			}
		})
	}
}

// BenchmarkDetectProfile times the detection-probability profiling.
func BenchmarkDetectProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.RunDetectProfile()
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkBIST times the LFSR/MISR self-test study.
func BenchmarkBIST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exper.RunBIST()
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkNORTable times the Section 5 NOR progression table.
func BenchmarkNORTable(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunNORTable(p)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkEnergy times the supply charge/static power study.
func BenchmarkEnergy(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunEnergy(p)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkSupplyRobustness times the VDD-corner robustness sweep.
func BenchmarkSupplyRobustness(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunSupplyRobustness(p)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkAblationNetwork times the breakdown-network factor analysis.
func BenchmarkAblationNetwork(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunAblationNetwork(p)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkAblationDriver times the gate-driven vs ideal-source ablation.
func BenchmarkAblationDriver(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunAblationDriver(p)
		requireClean(b, r.Check(), err)
	}
}

// BenchmarkAblationInjection times the beyond-series-parallel injection
// ablation (OBD vs analog EM under a non-exciting sequence).
func BenchmarkAblationInjection(b *testing.B) {
	p := spice.Default350()
	for i := 0; i < b.N; i++ {
		r, err := exper.RunAblationInjection(p)
		requireClean(b, r.Check(), err)
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
