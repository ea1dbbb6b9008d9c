// Command obdatpg generates test patterns for a gate-level netlist under a
// chosen fault model and reports coverage — including how well the
// traditional models' test sets cover the OBD fault universe (the paper's
// central comparison).
//
// Examples:
//
//	obdatpg -fulladder -model obd -v
//	obdatpg -fulladder -model obd -prune
//	obdatpg -netlist c432.bench -model obd -sat-fallback -stats
//	obdatpg -netlist mydesign.net -model transition -grade-obd
//	obdatpg -fulladder -model ndetect -n 3 -o tests.vec
//	obdatpg -fulladder -apply tests.vec
//	obdatpg -fulladder -model los
//	obdatpg -fulladder -model bist -cycles 256
//	obdatpg -netlist s27.bench -style loc
//	obdatpg -netlist s27.bench -style enhanced -grade-obd
//
// A DFF-bearing netlist needs -style: the circuit is lifted into its scan
// model (internal/seq) and OBD tests are generated for the combinational
// core under the chosen scan discipline — enhanced (arbitrary pairs), los
// (launch-on-shift) or loc (launch-on-capture/broadside). -style generates
// OBD tests only, so any -model other than obd is a usage error. -model los
// runs launch-on-shift on a combinational circuit whose inputs are all scan
// cells, chained in declaration order (seq.InputChain). -prune and
// -sat-fallback tune the combinational OBD generator only: with any other
// -model, with -style or with -apply they are usage errors too, as are a
// negative -max-backtracks, an -n below 1, a -cycles below 2, a
// -random-inputs below 1 and a negative -random-ffs.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"gobd/internal/atpg"
	"gobd/internal/bist"
	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/seq"
)

func main() {
	var (
		netlist   = flag.String("netlist", "", "gate-level netlist file (.bench = ISCAS-85, .v = structural Verilog, otherwise the internal/logic format)")
		fulladder = flag.Bool("fulladder", false, "use the built-in Fig. 8 full-adder sum circuit")
		randGates = flag.Int("random-gates", 0, "generate a seeded random primitive-gate circuit with this many gates")
		randIns   = flag.Int("random-inputs", 16, "primary input count for -random-gates")
		randFFs   = flag.Int("random-ffs", 0, "flip-flop count for -random-gates (makes the circuit sequential)")
		randSeed  = flag.Int64("random-seed", 1, "generator seed for -random-gates")
		model     = flag.String("model", "obd", "fault model: obd, transition, stuckat, ndetect, los, bist")
		style     = flag.String("style", "", "scan style for sequential circuits: enhanced, los, loc (lifts the netlist into its scan model and targets the combinational core's OBD universe; -model must be obd)")
		nDetect   = flag.Int("n", 3, "detection multiplicity for -model ndetect (at least 1)")
		cycles    = flag.Int("cycles", 256, "stream length for -model bist (at least 2)")
		gradeOBD  = flag.Bool("grade-obd", false, "also grade the generated set against the OBD universe")
		prune     = flag.Bool("prune", false, "settle the OBD faults netcheck's exact prover proves untestable before running PODEM on them (model obd only)")
		satFB     = flag.Bool("sat-fallback", false, "resolve PODEM aborts with the exact SAT prover (model obd only)")
		maxBT     = flag.Int("max-backtracks", 0, "PODEM backtrack limit (0 = default); low limits force aborts, which -sat-fallback then resolves")
		outFile   = flag.String("o", "", "write the generated vector pairs to this file")
		applyFile = flag.String("apply", "", "skip generation: grade a saved vector-pair file against the OBD universe")
		verbose   = flag.Bool("v", false, "print every generated vector")
		workers   = flag.Int("workers", 0, "fault-simulation worker count (0 = GOMAXPROCS)")
		stats     = flag.Bool("stats", false, "print per-worker scheduler statistics on exit")
	)
	flag.Parse()
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "obdatpg:", err)
		os.Exit(1)
	}
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "obdatpg: "+format+"\n", args...)
		os.Exit(2)
	}
	switch {
	case *style != "" && *model != "obd":
		usage("-style generates OBD tests; it cannot be combined with -model %s", *model)
	case (*prune || *satFB) && (*model != "obd" || *style != "" || *applyFile != ""):
		usage("-prune and -sat-fallback apply to combinational -model obd generation only (not -style or -apply)")
	case *maxBT < 0:
		usage("-max-backtracks %d is negative", *maxBT)
	case *nDetect < 1:
		usage("-n %d is below 1", *nDetect)
	case *cycles < 2:
		usage("-cycles %d is below 2 (fewer than two patterns give no launch pair)", *cycles)
	case *randIns < 1:
		usage("-random-inputs %d is below 1", *randIns)
	case *randFFs < 0:
		usage("-random-ffs %d is negative", *randFFs)
	}
	sched := atpg.NewScheduler(*workers)
	sched.CollectStats = *stats
	if *stats {
		defer printStats(sched)
	}
	var lc *logic.Circuit
	switch {
	case *fulladder:
		lc = cells.FullAdderSumLogic()
	case *netlist != "":
		c, err := logic.ParseFile(*netlist)
		if err != nil {
			die(err)
		}
		lc = c
	case *randGates > 0:
		rng := rand.New(rand.NewSource(*randSeed))
		lc = logic.RandomCircuit(rng, logic.RandomOptions{Inputs: *randIns, Gates: *randGates, FFs: *randFFs, Primitive: true})
	default:
		die(fmt.Errorf("need -netlist FILE, -fulladder or -random-gates N"))
	}
	fmt.Printf("circuit %s: %d inputs, %d outputs, %d gates, depth %d\n",
		lc.Name, len(lc.Inputs), len(lc.Outputs), len(lc.Gates), lc.Depth())

	if *applyFile != "" {
		f, err := os.Open(*applyFile)
		if err != nil {
			die(err)
		}
		saved, err := atpg.ReadTests(f, lc)
		f.Close()
		if err != nil {
			die(err)
		}
		faults, _ := fault.OBDUniverse(lc)
		cov, err := sched.GradeOBD(lc, faults, saved)
		if err != nil {
			die(err)
		}
		fmt.Printf("applied %d saved pairs: OBD coverage %s\n", len(saved), cov)
		if *verbose {
			for _, u := range cov.Undetected {
				fmt.Println("  missed: " + u)
			}
		}
		return
	}

	var pairs []atpg.TwoPattern
	if *style != "" || *model == "los" {
		st := seq.LOS
		var s *seq.Circuit
		var err error
		if *style != "" {
			if st, err = seq.ParseStyle(*style); err != nil {
				die(err)
			}
			s, err = seq.FromCircuit(lc)
		} else {
			s, err = seq.InputChain(lc)
		}
		if err != nil {
			die(err)
		}
		fmt.Printf("scan model: %d flip-flops, %d primary inputs, core %d gates\n",
			len(s.FFs), len(s.PIs), len(s.Core.Gates))
		faults, skipped := fault.OBDUniverse(s.Core)
		if len(skipped) > 0 {
			fmt.Printf("note: %d composite gates carry no OBD faults\n", len(skipped))
		}
		res, err := seq.GenerateTestsOn(sched, s, faults, st, nil)
		if err != nil {
			die(err)
		}
		exact := ""
		if res.Exact {
			exact = " (exact)"
		}
		fmt.Printf("%s: generated %d pairs, coverage %s%s\n",
			st, len(res.Tests), res.Coverage, exact)
		if *verbose {
			for _, tp := range res.Tests {
				fmt.Println("  " + tp.StringFor(s.Core))
			}
		}
		// The tail flags (-grade-obd, -o) operate on core patterns.
		pairs = res.Tests
		lc = s.Core
	} else {
		switch *model {
		case "obd":
			faults, skipped := fault.OBDUniverse(lc)
			if len(skipped) > 0 {
				fmt.Printf("note: %d composite gates carry no OBD faults\n", len(skipped))
			}
			opt := atpg.DefaultOptions()
			opt.Prune = *prune
			if *maxBT > 0 {
				opt.MaxBacktracks = *maxBT
			}
			var satStats *atpg.SATStats
			if *satFB {
				opt.SATFallback = true
				satStats = &atpg.SATStats{}
				opt.SATStats = satStats
			}
			ts, err := sched.GenerateOBDTests(lc, faults, opt)
			if err != nil {
				die(err)
			}
			pairs = ts.Tests
			report2(lc, ts, *verbose)
			if satStats != nil {
				fmt.Printf("sat fallback: %d aborts handed over, %d resolved detected, %d resolved untestable, %d undecided\n",
					satStats.Aborts, satStats.Detected, satStats.Untestable, satStats.Undecided)
			}
		case "ndetect":
			faults, _ := fault.OBDUniverse(lc)
			ts, err := sched.GenerateNDetectOBDTests(lc, faults, *nDetect)
			if err != nil {
				die(err)
			}
			pairs = ts.Tests
			report2(lc, ts, *verbose)
		case "bist":
			faults, _ := fault.OBDUniverse(lc)
			s, err := bist.NewSession(lc, 0xACE1, *cycles)
			if err != nil {
				die(err)
			}
			golden, err := s.GoldenSignature()
			if err != nil {
				die(err)
			}
			results, err := s.RunFaults(faults, golden, sched)
			if err != nil {
				die(err)
			}
			detected, aliased := 0, 0
			for _, res := range results {
				if res.DetectedCycles > 0 {
					detected++
					if res.Aliased {
						aliased++
					}
				}
			}
			fmt.Printf("%d-cycle BIST (golden signature %04x): %d/%d detected, %d aliased\n",
				*cycles, golden, detected, len(faults), aliased)
			pairs = s.Pairs()
		case "transition":
			ts, err := sched.GenerateTransitionTests(lc, fault.TransitionUniverse(lc), nil)
			if err != nil {
				die(err)
			}
			pairs = ts.Tests
			report2(lc, ts, *verbose)
		case "stuckat":
			ts, err := sched.GenerateStuckAtTests(lc, fault.StuckAtUniverse(lc), nil)
			if err != nil {
				die(err)
			}
			fmt.Printf("generated %d patterns, coverage %s\n", len(ts.Tests), ts.Coverage)
			if *verbose {
				for _, p := range ts.Tests {
					fmt.Println("  " + p.KeyFor(lc))
				}
			}
			for i := 1; i < len(ts.Tests); i++ {
				pairs = append(pairs, atpg.TwoPattern{V1: ts.Tests[i-1], V2: ts.Tests[i]})
			}
		default:
			die(fmt.Errorf("unknown model %q", *model))
		}
	}
	if *gradeOBD {
		faults, _ := fault.OBDUniverse(lc)
		cov, err := sched.GradeOBD(lc, faults, pairs)
		if err != nil {
			die(err)
		}
		fmt.Printf("OBD universe coverage of this set: %s\n", cov)
		if *verbose {
			for _, f := range cov.Undetected {
				fmt.Println("  missed: " + f)
			}
		}
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			die(err)
		}
		err = atpg.WriteTests(f, lc, pairs)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			die(err)
		}
		fmt.Printf("wrote %d pairs to %s\n", len(pairs), *outFile)
	}
}

func printStats(sched *atpg.Scheduler) {
	for _, ws := range sched.Stats() {
		fmt.Println("  " + ws.String())
	}
}

func report2(lc *logic.Circuit, ts *atpg.TestSet, verbose bool) {
	nUnt, nAb, nErr := 0, 0, 0
	for _, r := range ts.Results {
		switch r.Status {
		case atpg.Untestable:
			nUnt++
		case atpg.Aborted:
			nAb++
		case atpg.Errored:
			nErr++
		case atpg.Detected:
			// Reflected in len(ts.Tests) and the coverage figure.
		}
	}
	fmt.Printf("generated %d vector pairs, coverage %s (%d untestable, %d aborted, %d errored)\n",
		len(ts.Tests), ts.Coverage, nUnt, nAb, nErr)
	if verbose {
		for _, tp := range ts.Tests {
			fmt.Println("  " + tp.StringFor(lc))
		}
	}
}
