// Command obdsim runs OBD experiments on a driven-gate harness (the
// paper's Fig. 5 NAND set-up, or its NOR dual): inject a breakdown at a
// chosen transistor and stage, apply an input sequence, and print the
// measured delay (and optionally waveforms or the SPICE deck). Comma
// lists in -fault and -stage sweep every combination across the
// deterministic scheduler pool, like obdatpg and obdrepro.
//
// Examples:
//
//	obdsim -fault PB -stage MBD2 -seq "(11,10)" -plot
//	obdsim -cell nor -fault NB -stage MBD1 -seq "(00,01)"
//	obdsim -fault NA -stage HBD -deck
//	obdsim -fault NA,NB,PA,PB -stage MBD1,MBD2,MBD3,HBD -workers 4 -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/exper"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/obd"
	"gobd/internal/spice"
	"gobd/internal/waveform"
)

// gradeNetlist is the gate-level companion of the analog sweep: load a
// netlist, enumerate its OBD fault universe and fault-simulate a seeded
// random complete two-pattern set with the levelized event-driven engine.
func gradeNetlist(path string, pairs int, seed int64, workers int, jsonOut bool) error {
	c, err := logic.ParseFile(path)
	if err != nil {
		return err
	}
	faults, skipped := fault.OBDUniverse(c)
	rng := rand.New(rand.NewSource(seed))
	pattern := func() atpg.Pattern {
		p := make(atpg.Pattern, len(c.Inputs))
		for _, in := range c.Inputs {
			p[in] = logic.FromBool(rng.Intn(2) == 1)
		}
		return p
	}
	tests := make([]atpg.TwoPattern, pairs)
	for i := range tests {
		tests[i] = atpg.TwoPattern{V1: pattern(), V2: pattern()}
	}
	cov, err := atpg.NewScheduler(workers).GradeOBD(c, faults, tests)
	if err != nil {
		return err
	}
	if jsonOut {
		return json.NewEncoder(os.Stdout).Encode(struct {
			Circuit  string  `json:"circuit"`
			Gates    int     `json:"gates"`
			Faults   int     `json:"faults"`
			Skipped  int     `json:"skipped_gates"`
			Pairs    int     `json:"pairs"`
			Seed     int64   `json:"seed"`
			Detected int     `json:"detected"`
			Ratio    float64 `json:"ratio"`
		}{path, len(c.Gates), len(faults), len(skipped), len(tests), seed, cov.Detected, cov.Ratio()})
	}
	fmt.Printf("circuit %s: %d inputs, %d outputs, %d gates, depth %d\n",
		path, len(c.Inputs), len(c.Outputs), len(c.Gates), c.Depth())
	fmt.Printf("OBD universe: %d faults (%d gates without transistor networks)\n",
		len(faults), len(skipped))
	fmt.Printf("graded %d random pairs (seed %d): coverage %s\n", len(tests), seed, cov)
	return nil
}

func parseFault(s string) (fault.Side, int, error) {
	switch strings.ToUpper(s) {
	case "NA":
		return fault.PullDown, 0, nil
	case "NB":
		return fault.PullDown, 1, nil
	case "PA":
		return fault.PullUp, 0, nil
	case "PB":
		return fault.PullUp, 1, nil
	default:
		return 0, 0, fmt.Errorf("unknown fault %q (want NA, NB, PA or PB)", s)
	}
}

func parseStage(s string) (obd.Stage, error) {
	for _, st := range obd.Stages() {
		if strings.EqualFold(st.String(), s) {
			return st, nil
		}
	}
	return 0, fmt.Errorf("unknown stage %q (want FaultFree, MBD1, MBD2, MBD3 or HBD)", s)
}

// combo is one experiment of the sweep.
type combo struct {
	faultName string
	side      fault.Side
	input     int
	stage     obd.Stage
}

// result is one experiment's outcome (the -json document element).
type result struct {
	Cell     string  `json:"cell"`
	Fault    string  `json:"fault"`
	Stage    string  `json:"stage"`
	Sequence string  `json:"sequence"`
	Kind     string  `json:"kind"`
	DelayPS  float64 `json:"delay_ps,omitempty"`
}

func main() {
	var (
		cellName  = flag.String("cell", "nand", "device under test: nand or nor")
		faultName = flag.String("fault", "NA", "defective transistor(s): comma list of NA, NB, PA, PB")
		stageName = flag.String("stage", "MBD2", "breakdown stage(s): comma list of FaultFree, MBD1, MBD2, MBD3, HBD")
		seq       = flag.String("seq", "(01,11)", "input sequence in paper notation")
		plot      = flag.Bool("plot", false, "print an ASCII plot of the output waveform (single experiment only)")
		csv       = flag.Bool("csv", false, "print the input/output waveforms as CSV (single experiment only)")
		chain     = flag.Int("chain", 2, "NAND only: driver inverter stages (even; 0 = ideal sources)")
		deck      = flag.Bool("deck", false, "also print the injected circuit as a SPICE deck (single experiment only)")
		jsonOut   = flag.Bool("json", false, "print results as a JSON array")
		workers   = flag.Int("workers", 0, "sweep worker count (0 = GOMAXPROCS; changes speed, never results)")
		netlist   = flag.String("netlist", "", "gate-level grading mode: fault-simulate random pairs against FILE's OBD universe (.bench, .v or the internal format)")
		pairCount = flag.Int("pairs", 256, "gate-level mode: number of seeded random complete vector pairs")
		pairSeed  = flag.Int64("pattern-seed", 1, "gate-level mode: pattern RNG seed")
	)
	flag.Parse()
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "obdsim:", err)
		os.Exit(1)
	}
	if *pairCount < 0 {
		fmt.Fprintf(os.Stderr, "obdsim: -pairs %d is negative\n", *pairCount)
		os.Exit(2)
	}
	if *netlist != "" {
		if err := gradeNetlist(*netlist, *pairCount, *pairSeed, *workers, *jsonOut); err != nil {
			die(err)
		}
		return
	}
	cell := strings.ToLower(*cellName)
	if cell != "nand" && cell != "nor" {
		die(fmt.Errorf("unknown cell %q (want nand or nor)", *cellName))
	}
	pr, err := fault.ParsePair(*seq)
	if err != nil {
		die(err)
	}
	if len(pr.V1) != 2 {
		die(fmt.Errorf("sequence must have two inputs, got %s", pr))
	}

	// Expand the sweep: every fault × every stage, in flag order.
	var combos []combo
	for _, fs := range strings.Split(*faultName, ",") {
		side, input, err := parseFault(strings.TrimSpace(fs))
		if err != nil {
			die(err)
		}
		for _, ss := range strings.Split(*stageName, ",") {
			stage, err := parseStage(strings.TrimSpace(ss))
			if err != nil {
				die(err)
			}
			combos = append(combos, combo{faultName: strings.ToUpper(strings.TrimSpace(fs)), side: side, input: input, stage: stage})
		}
	}
	single := len(combos) == 1
	if !single && (*plot || *csv || *deck) {
		die(fmt.Errorf("-plot, -csv and -deck need a single fault/stage combination, got %d", len(combos)))
	}

	p := spice.Default350()
	// Each experiment elaborates its own harness, so the sweep shards
	// cleanly over the scheduler's deterministic index-slot pool: slot i
	// always holds combo i regardless of worker count.
	results := make([]result, len(combos))
	decks := make([]string, len(combos))
	plots := make([]string, len(combos))
	csvs := make([]string, len(combos))
	sched := atpg.NewScheduler(*workers)
	rep := sched.ForEachCtx(context.Background(), len(combos), func(i int) error {
		cb := combos[i]
		var (
			ckt        *spice.Circuit
			outputNode string
			inputNode  func(int) string
			res        *spice.TranResult
			m          waveform.DelayMeasurement
			err        error // shadows main's err: workers must not share it
		)
		switch cell {
		case "nand":
			h := cells.NewNANDHarness(p, *chain)
			obd.Inject(h.B.C, "f", h.FETFor(cb.side, cb.input), cb.stage)
			h.Apply(pr, exper.TSwitch, exper.TEdge)
			ckt, outputNode, inputNode = h.B.C, h.OutputNode(), h.InputNode
			if res, err = h.Run(exper.TStop, exper.TStep); err != nil {
				return err
			}
			if m, err = h.Measure(res, pr, exper.TSwitch, exper.TEdge); err != nil {
				return err
			}
		case "nor":
			h, err := cells.NewGateHarness(p, logic.Nor, 2)
			if err != nil {
				return err
			}
			obd.Inject(h.B.C, "f", h.FETFor(cb.side, cb.input), cb.stage)
			if err := h.Apply(pr, exper.TSwitch, exper.TEdge); err != nil {
				return err
			}
			ckt, outputNode = h.B.C, h.OutputNode()
			inputNode = func(i int) string { return fmt.Sprintf("drv%db", i) }
			if res, err = h.Run(exper.TStop, exper.TStep); err != nil {
				return err
			}
			if m, err = h.Measure(res, pr, exper.TSwitch, exper.TEdge); err != nil {
				return err
			}
		}
		r := result{
			Cell:     strings.ToUpper(cell),
			Fault:    cb.faultName,
			Stage:    cb.stage.String(),
			Sequence: pr.String(),
			Kind:     m.Kind.String(),
		}
		if m.Kind == waveform.TransitionOK {
			r.DelayPS = m.Delay * 1e12
		}
		results[i] = r
		out := waveform.MustNew("out", res.Times, res.V(outputNode))
		if *plot {
			inA := waveform.MustNew("inA", res.Times, res.V(inputNode(0)))
			inB := waveform.MustNew("inB", res.Times, res.V(inputNode(1)))
			plots[i] = waveform.ASCIIPlot(inA, 8, 72) + waveform.ASCIIPlot(inB, 8, 72) + waveform.ASCIIPlot(out, 8, 72)
		}
		if *csv {
			inA := waveform.MustNew("inA", res.Times, res.V(inputNode(0)))
			inB := waveform.MustNew("inB", res.Times, res.V(inputNode(1)))
			csvs[i] = waveform.CSV(inA, inB, out)
		}
		if *deck {
			decks[i] = spice.Netlist(ckt)
		}
		return nil
	})
	if err := rep.AsError(); err != nil {
		die(err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			die(err)
		}
	} else {
		for _, r := range results {
			fmt.Printf("%s fault %s at %s, sequence %s: ", r.Cell, r.Fault, r.Stage, r.Sequence)
			if r.Kind == waveform.TransitionOK.String() {
				fmt.Printf("delay %.1f ps\n", r.DelayPS)
			} else {
				fmt.Printf("%s (no transition within %.0f ns)\n", r.Kind, exper.TStop*1e9)
			}
		}
	}
	if single {
		fmt.Print(plots[0])
		fmt.Print(csvs[0])
		fmt.Print(decks[0])
	}
}
