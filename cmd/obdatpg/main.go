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
	"errors"
	"flag"
	"fmt"
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config holds the parsed flags of one invocation.
type config struct {
	netlist, model, style, outFile, applyFile                    string
	fulladder, gradeOBD, prune, satFB, verbose, stats            bool
	randGates, randIns, randFFs, nDetect, cycles, maxBT, workers int
	randSeed                                                     int64
}

// run is the command: it parses args, generates or grades, writes the
// report to stdout and diagnostics to stderr, and returns the exit
// status: 2 for a usage error, 1 for a failure, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obdatpg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.netlist, "netlist", "", "gate-level netlist file (.bench = ISCAS-85, .v = structural Verilog, otherwise the internal/logic format)")
	fs.BoolVar(&cfg.fulladder, "fulladder", false, "use the built-in Fig. 8 full-adder sum circuit")
	fs.IntVar(&cfg.randGates, "random-gates", 0, "generate a seeded random primitive-gate circuit with this many gates")
	fs.IntVar(&cfg.randIns, "random-inputs", 16, "primary input count for -random-gates")
	fs.IntVar(&cfg.randFFs, "random-ffs", 0, "flip-flop count for -random-gates (makes the circuit sequential)")
	fs.Int64Var(&cfg.randSeed, "random-seed", 1, "generator seed for -random-gates")
	fs.StringVar(&cfg.model, "model", "obd", "fault model: obd, transition, stuckat, ndetect, los, bist")
	fs.StringVar(&cfg.style, "style", "", "scan style for sequential circuits: enhanced, los, loc (lifts the netlist into its scan model and targets the combinational core's OBD universe; -model must be obd)")
	fs.IntVar(&cfg.nDetect, "n", 3, "detection multiplicity for -model ndetect (at least 1)")
	fs.IntVar(&cfg.cycles, "cycles", 256, "stream length for -model bist (at least 2)")
	fs.BoolVar(&cfg.gradeOBD, "grade-obd", false, "also grade the generated set against the OBD universe")
	fs.BoolVar(&cfg.prune, "prune", false, "settle the OBD faults netcheck's exact prover proves untestable before running PODEM on them (model obd only)")
	fs.BoolVar(&cfg.satFB, "sat-fallback", false, "resolve PODEM aborts with the exact SAT prover (model obd only)")
	fs.IntVar(&cfg.maxBT, "max-backtracks", 0, "PODEM backtrack limit (0 = default); low limits force aborts, which -sat-fallback then resolves")
	fs.StringVar(&cfg.outFile, "o", "", "write the generated vector pairs to this file")
	fs.StringVar(&cfg.applyFile, "apply", "", "skip generation: grade a saved vector-pair file against the OBD universe")
	fs.BoolVar(&cfg.verbose, "v", false, "print every generated vector")
	fs.IntVar(&cfg.workers, "workers", 0, "fault-simulation worker count (0 = GOMAXPROCS)")
	fs.BoolVar(&cfg.stats, "stats", false, "print per-worker scheduler statistics on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if msg := cfg.usageError(); msg != "" {
		fmt.Fprintln(stderr, "obdatpg: "+msg)
		return 2
	}
	sched := atpg.NewScheduler(cfg.workers)
	sched.CollectStats = cfg.stats
	if err := cfg.execute(stdout, sched); err != nil {
		fmt.Fprintln(stderr, "obdatpg:", err)
		return 1
	}
	if cfg.stats {
		for _, ws := range sched.Stats() {
			fmt.Fprintln(stdout, "  "+ws.String())
		}
	}
	return 0
}

// usageError returns the message of the first conflicting or
// out-of-range flag, or "".
func (cfg *config) usageError() string {
	switch {
	case cfg.style != "" && cfg.model != "obd":
		return fmt.Sprintf("-style generates OBD tests; it cannot be combined with -model %s", cfg.model)
	case (cfg.prune || cfg.satFB) && (cfg.model != "obd" || cfg.style != "" || cfg.applyFile != ""):
		return "-prune and -sat-fallback apply to combinational -model obd generation only (not -style or -apply)"
	case cfg.maxBT < 0:
		return fmt.Sprintf("-max-backtracks %d is negative", cfg.maxBT)
	case cfg.nDetect < 1:
		return fmt.Sprintf("-n %d is below 1", cfg.nDetect)
	case cfg.cycles < 2:
		return fmt.Sprintf("-cycles %d is below 2 (fewer than two patterns give no launch pair)", cfg.cycles)
	case cfg.randIns < 1:
		return fmt.Sprintf("-random-inputs %d is below 1", cfg.randIns)
	case cfg.randFFs < 0:
		return fmt.Sprintf("-random-ffs %d is negative", cfg.randFFs)
	}
	return ""
}

// execute loads the circuit, then generates (or grades the -apply file)
// on sched and reports to w.
func (cfg *config) execute(w io.Writer, sched *atpg.Scheduler) error {
	var lc *logic.Circuit
	switch {
	case cfg.fulladder:
		lc = cells.FullAdderSumLogic()
	case cfg.netlist != "":
		c, err := logic.ParseFile(cfg.netlist)
		if err != nil {
			return err
		}
		lc = c
	case cfg.randGates > 0:
		rng := rand.New(rand.NewSource(cfg.randSeed))
		lc = logic.RandomCircuit(rng, logic.RandomOptions{Inputs: cfg.randIns, Gates: cfg.randGates, FFs: cfg.randFFs, Primitive: true})
	default:
		return fmt.Errorf("need -netlist FILE, -fulladder or -random-gates N")
	}
	fmt.Fprintf(w, "circuit %s: %d inputs, %d outputs, %d gates, depth %d\n",
		lc.Name, len(lc.Inputs), len(lc.Outputs), len(lc.Gates), lc.Depth())

	if cfg.applyFile != "" {
		f, err := os.Open(cfg.applyFile)
		if err != nil {
			return err
		}
		saved, err := atpg.ReadTests(f, lc)
		f.Close()
		if err != nil {
			return err
		}
		faults, _ := fault.OBDUniverse(lc)
		cov, err := sched.GradeOBD(lc, faults, saved)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "applied %d saved pairs: OBD coverage %s\n", len(saved), cov)
		if cfg.verbose {
			for _, u := range cov.Undetected {
				fmt.Fprintln(w, "  missed: "+u)
			}
		}
		return nil
	}

	var pairs []atpg.TwoPattern
	if cfg.style != "" || cfg.model == "los" {
		st := seq.LOS
		var s *seq.Circuit
		var err error
		if cfg.style != "" {
			if st, err = seq.ParseStyle(cfg.style); err != nil {
				return err
			}
			s, err = seq.FromCircuit(lc)
		} else {
			s, err = seq.InputChain(lc)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "scan model: %d flip-flops, %d primary inputs, core %d gates\n",
			len(s.FFs), len(s.PIs), len(s.Core.Gates))
		faults, skipped := fault.OBDUniverse(s.Core)
		if len(skipped) > 0 {
			fmt.Fprintf(w, "note: %d composite gates carry no OBD faults\n", len(skipped))
		}
		res, err := seq.GenerateTestsOn(sched, s, faults, st, nil)
		if err != nil {
			return err
		}
		exact := ""
		if res.Exact {
			exact = " (exact)"
		}
		fmt.Fprintf(w, "%s: generated %d pairs, coverage %s%s\n",
			st, len(res.Tests), res.Coverage, exact)
		if cfg.verbose {
			for _, tp := range res.Tests {
				fmt.Fprintln(w, "  "+tp.StringFor(s.Core))
			}
		}
		// The tail flags (-grade-obd, -o) operate on core patterns.
		pairs = res.Tests
		lc = s.Core
	} else {
		switch cfg.model {
		case "obd":
			faults, skipped := fault.OBDUniverse(lc)
			if len(skipped) > 0 {
				fmt.Fprintf(w, "note: %d composite gates carry no OBD faults\n", len(skipped))
			}
			opt := atpg.DefaultOptions()
			opt.Prune = cfg.prune
			if cfg.maxBT > 0 {
				opt.MaxBacktracks = cfg.maxBT
			}
			var satStats *atpg.SATStats
			if cfg.satFB {
				opt.SATFallback = true
				satStats = &atpg.SATStats{}
				opt.SATStats = satStats
			}
			ts, err := sched.GenerateOBDTests(lc, faults, opt)
			if err != nil {
				return err
			}
			pairs = ts.Tests
			report2(w, lc, ts, cfg.verbose)
			if satStats != nil {
				fmt.Fprintf(w, "sat fallback: %d aborts handed over, %d resolved detected, %d resolved untestable, %d undecided\n",
					satStats.Aborts, satStats.Detected, satStats.Untestable, satStats.Undecided)
			}
		case "ndetect":
			faults, _ := fault.OBDUniverse(lc)
			ts, err := sched.GenerateNDetectOBDTests(lc, faults, cfg.nDetect)
			if err != nil {
				return err
			}
			pairs = ts.Tests
			report2(w, lc, ts, cfg.verbose)
		case "bist":
			faults, _ := fault.OBDUniverse(lc)
			s, err := bist.NewSession(lc, 0xACE1, cfg.cycles)
			if err != nil {
				return err
			}
			golden, err := s.GoldenSignature()
			if err != nil {
				return err
			}
			results, err := s.RunFaults(faults, golden, sched)
			if err != nil {
				return err
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
			fmt.Fprintf(w, "%d-cycle BIST (golden signature %04x): %d/%d detected, %d aliased\n",
				cfg.cycles, golden, detected, len(faults), aliased)
			pairs = s.Pairs()
		case "transition":
			ts, err := sched.GenerateTransitionTests(lc, fault.TransitionUniverse(lc), nil)
			if err != nil {
				return err
			}
			pairs = ts.Tests
			report2(w, lc, ts, cfg.verbose)
		case "stuckat":
			ts, err := sched.GenerateStuckAtTests(lc, fault.StuckAtUniverse(lc), nil)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "generated %d patterns, coverage %s\n", len(ts.Tests), ts.Coverage)
			if cfg.verbose {
				for _, p := range ts.Tests {
					fmt.Fprintln(w, "  "+p.KeyFor(lc))
				}
			}
			for i := 1; i < len(ts.Tests); i++ {
				pairs = append(pairs, atpg.TwoPattern{V1: ts.Tests[i-1], V2: ts.Tests[i]})
			}
		default:
			return fmt.Errorf("unknown model %q", cfg.model)
		}
	}
	if cfg.gradeOBD {
		faults, _ := fault.OBDUniverse(lc)
		cov, err := sched.GradeOBD(lc, faults, pairs)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "OBD universe coverage of this set: %s\n", cov)
		if cfg.verbose {
			for _, f := range cov.Undetected {
				fmt.Fprintln(w, "  missed: "+f)
			}
		}
	}
	if cfg.outFile != "" {
		f, err := os.Create(cfg.outFile)
		if err != nil {
			return err
		}
		err = atpg.WriteTests(f, lc, pairs)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d pairs to %s\n", len(pairs), cfg.outFile)
	}
	return nil
}

func report2(w io.Writer, lc *logic.Circuit, ts *atpg.TestSet, verbose bool) {
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
	fmt.Fprintf(w, "generated %d vector pairs, coverage %s (%d untestable, %d aborted, %d errored)\n",
		len(ts.Tests), ts.Coverage, nUnt, nAb, nErr)
	if verbose {
		for _, tp := range ts.Tests {
			fmt.Fprintln(w, "  "+tp.StringFor(lc))
		}
	}
}
