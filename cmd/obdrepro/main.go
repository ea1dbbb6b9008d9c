// Command obdrepro regenerates every data table and figure of the paper
// and prints them in a paper-like text layout, together with the shape
// checks EXPERIMENTS.md records. With no flags it runs everything.
// Batch grading and generation run on a pool of GOMAXPROCS workers
// (GOMAXPROCS=N sizes it); every experiment's output is the same for
// any pool size.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/exper"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/obd"
	"gobd/internal/spice"
	"gobd/internal/timing"
	"gobd/internal/waveform"
)

// experiment couples a name with a runner returning formatted output and
// shape-check violations.
type experiment struct {
	name string
	desc string
	run  func(p *spice.Process) (string, []string, error)
}

func experiments() []experiment {
	return []experiment{
		{"table1", "Table 1: NAND OBD progression delays", func(p *spice.Process) (string, []string, error) {
			r, err := exper.RunTable1(p)
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"fig4", "Figure 4: inverter VTC under NMOS OBD", func(p *spice.Process) (string, []string, error) {
			r, err := exper.RunFigure4(p)
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"fig6", "Figure 6: NMOS OBD progression transients", func(p *spice.Process) (string, []string, error) {
			r, err := exper.RunFigure6(p)
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"fig7", "Figure 7: input-specific PMOS OBD detection", func(p *spice.Process) (string, []string, error) {
			r, err := exper.RunFigure7(p)
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"fig9", "Figure 9: full-adder fault propagation", func(p *spice.Process) (string, []string, error) {
			r, err := exper.RunFigure9(p, obd.MBD2)
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"sets", "Sections 4.1/5: excitation sets and minimal covers", func(*spice.Process) (string, []string, error) {
			r, err := exper.RunExcitationSets()
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"fulladder", "Section 4.3: full-adder OBD census and ATPG", func(*spice.Process) (string, []string, error) {
			r, err := exper.RunFullAdderCounts()
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"gap", "Coverage gap: traditional TPG vs OBD-aware ATPG", func(*spice.Process) (string, []string, error) {
			r, err := exper.RunCoverageGap("fulladder_sum", cells.FullAdderSumLogic())
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"em", "Section 5: EM vs OBD excitation sets", func(*spice.Process) (string, []string, error) {
			r, err := exper.RunEMComparison()
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"window", "Section 4.2: detection window and test scheduling", func(p *spice.Process) (string, []string, error) {
			r, err := exper.RunDetectionWindow(p, 9)
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"validate", "Analog cross-validation of the excitation rule (NAND/NOR/AOI21)", func(p *spice.Process) (string, []string, error) {
			var out strings.Builder
			var bad []string
			for _, tc := range []struct {
				typ   logic.GateType
				arity int
			}{{logic.Nand, 2}, {logic.Nor, 2}, {logic.Aoi21, 3}} {
				v, err := exper.RunRuleValidation(p, tc.typ, tc.arity, obd.MBD2)
				if err != nil {
					return "", nil, err
				}
				out.WriteString(v.Format())
				bad = append(bad, v.Check()...)
			}
			return out.String(), bad, nil
		}},
		{"iddq", "IDDQ elevation per stage and input state", func(p *spice.Process) (string, []string, error) {
			r, err := exper.RunIDDQ(p)
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"capture", "Section 4.2: coverage vs capture time (timing simulator)", func(p *spice.Process) (string, []string, error) {
			r, err := exper.RunCaptureSweep(p)
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"scan", "Section 5 DFT: enhanced scan vs launch-on-shift", func(*spice.Process) (string, []string, error) {
			r, err := exper.RunScanComparison()
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"gapsuite", "Coverage gap across the benchmark circuit suite", func(*spice.Process) (string, []string, error) {
			r, err := exper.RunGapSuite()
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"seqmodes", "Section 5 (sequential): scan-mode OBD coverage", func(*spice.Process) (string, []string, error) {
			r, err := exper.RunSeqModes()
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"diagnosis", "Fault-dictionary diagnosis resolution", func(*spice.Process) (string, []string, error) {
			r, err := exper.RunDiagnosis()
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"concurrent", "Concurrent-testing race over the defect lifetime", func(p *spice.Process) (string, []string, error) {
			r, err := exper.RunConcurrentSim(p)
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"ndetect", "n-detect hardening: set size, diagnosis, double defects", func(*spice.Process) (string, []string, error) {
			r, err := exper.RunNDetect()
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"guidance", "ATPG guidance ablation: SCOAP-steered vs unguided PODEM", func(*spice.Process) (string, []string, error) {
			r, err := exper.RunATPGGuidance()
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"profile", "Detection-probability profile (random resistance)", func(*spice.Process) (string, []string, error) {
			r, err := exper.RunDetectProfile()
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"bist", "BIST: LFSR/MISR self-test coverage and aliasing", func(*spice.Process) (string, []string, error) {
			r, err := exper.RunBIST()
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"nortable", "Section 5 extension: NOR OBD progression table", func(p *spice.Process) (string, []string, error) {
			r, err := exper.RunNORTable(p)
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"energy", "Supply charge and static power per breakdown stage", func(p *spice.Process) (string, []string, error) {
			r, err := exper.RunEnergy(p)
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"robustness", "Table 1 orderings across supply corners", func(p *spice.Process) (string, []string, error) {
			r, err := exper.RunSupplyRobustness(p)
			if err != nil {
				return "", nil, err
			}
			return r.Format(), r.Check(), nil
		}},
		{"ablations", "Ablations: network factors, driving style, injection", func(p *spice.Process) (string, []string, error) {
			var out strings.Builder
			var bad []string
			n, err := exper.RunAblationNetwork(p)
			if err != nil {
				return "", nil, err
			}
			out.WriteString(n.Format())
			bad = append(bad, n.Check()...)
			d, err := exper.RunAblationDriver(p)
			if err != nil {
				return "", nil, err
			}
			out.WriteString(d.Format())
			bad = append(bad, d.Check()...)
			i, err := exper.RunAblationInjection(p)
			if err != nil {
				return "", nil, err
			}
			out.WriteString(i.Format())
			bad = append(bad, i.Check()...)
			return out.String(), bad, nil
		}},
	}
}

// writeArtifacts regenerates the data figures and writes machine-readable
// artifacts (CSV curves, a VCD trace, a SPICE deck) into dir.
func writeArtifacts(dir string, p *spice.Process) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name, content string) error {
		return os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644)
	}
	// Figure 4: VTC curves per stage on a shared input axis.
	f4, err := exper.RunFigure4(p)
	if err != nil {
		return err
	}
	var f4Series []*waveform.Series
	for _, st := range f4.Stages {
		f4Series = append(f4Series, waveform.MustNew(st.String(), f4.In, f4.Curves[st]))
	}
	if err := write("fig4_vtc.csv", waveform.CSV(f4Series...)); err != nil {
		return err
	}
	// Figure 6: per-stage output waveforms.
	f6, err := exper.RunFigure6(p)
	if err != nil {
		return err
	}
	var f6Series []*waveform.Series
	for _, st := range f6.Stages {
		f6Series = append(f6Series, f6.Waves[st])
	}
	if err := write("fig6_progression.csv", waveform.CSV(f6Series...)); err != nil {
		return err
	}
	// Figure 7: the 2×2 PMOS specificity waveforms.
	f7, err := exper.RunFigure7(p)
	if err != nil {
		return err
	}
	var f7Series []*waveform.Series
	for _, name := range []string{"PA", "PB"} {
		for _, seq := range []string{"(11,01)", "(11,10)"} {
			f7Series = append(f7Series, f7.Waves[name][seq])
		}
	}
	if err := write("fig7_pmos.csv", waveform.CSV(f7Series...)); err != nil {
		return err
	}
	// Figure 9: golden vs faulty sum waveforms per injected transistor.
	f9, err := exper.RunFigure9(p, obd.MBD2)
	if err != nil {
		return err
	}
	for _, cse := range f9.Cases {
		golden := *cse.WaveGolden
		golden.Name = "golden"
		faulty := *cse.Wave
		faulty.Name = "faulty"
		name := "fig9_" + strings.ReplaceAll(strings.ToLower(cse.Fault), " ", "_") + ".csv"
		if err := write(name, waveform.CSV(&golden, &faulty)); err != nil {
			return err
		}
	}
	// A gate-level timing trace of the full adder as VCD.
	lc := cells.FullAdderSumLogic()
	sim, err := timing.New(lc, nil)
	if err != nil {
		return err
	}
	v1 := atpg.Pattern{"A": logic.One, "B": logic.One, "C": logic.Zero}
	v2 := atpg.Pattern{"A": logic.One, "B": logic.One, "C": logic.One}
	tr, err := sim.Run(v1, v2, nil)
	if err != nil {
		return err
	}
	if err := write("fulladder_timing.vcd", timing.VCD(tr, "fulladder_sum")); err != nil {
		return err
	}
	// The Fig. 5 harness as a SPICE deck.
	h := cells.NewNANDHarness(p, 2)
	obd.Inject(h.B.C, "f", h.FETFor(fault.PullDown, 0), obd.MBD2)
	return write("fig5_harness.cir", spice.Netlist(h.B.C))
}

// jsonResult is one experiment's machine-readable summary (-json).
type jsonResult struct {
	Name       string   `json:"name"`
	Desc       string   `json:"description"`
	OK         bool     `json:"ok"`
	Violations []string `json:"violations,omitempty"`
	Error      string   `json:"error,omitempty"`
	Seconds    float64  `json:"seconds"`
}

func main() {
	var (
		which    = flag.String("experiment", "all", "experiment to run (all, or comma-separated names)")
		list     = flag.Bool("list", false, "list experiment names and exit")
		outDir   = flag.String("out", "", "also write CSV/VCD/SPICE artifacts for the data figures into this directory")
		jsonMode = flag.Bool("json", false, "emit a JSON summary instead of the paper-style text")
	)
	flag.Parse()
	if *outDir != "" {
		if err := writeArtifacts(*outDir, spice.Default350()); err != nil {
			fmt.Fprintf(os.Stderr, "obdrepro: artifacts: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("artifacts written to %s\n", *outDir)
	}
	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-10s %s\n", e.name, e.desc)
		}
		return
	}
	want := map[string]bool{}
	if *which != "all" {
		for _, n := range strings.Split(*which, ",") {
			n = strings.TrimSpace(n)
			want[n] = true
			found := false
			for _, e := range exps {
				if e.name == n {
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "obdrepro: unknown experiment %q (use -list)\n", n)
				os.Exit(2)
			}
		}
	}
	p := spice.Default350()
	failures := 0
	var summary []jsonResult
	for _, e := range exps {
		if len(want) > 0 && !want[e.name] {
			continue
		}
		start := time.Now() //obdcheck:allow timenow — per-experiment wall-clock timing is progress reporting, never a result
		out, bad, err := e.run(p)
		elapsed := time.Since(start).Seconds()
		res := jsonResult{Name: e.name, Desc: e.desc, OK: err == nil && len(bad) == 0, Violations: bad, Seconds: elapsed}
		if err != nil {
			res.Error = err.Error()
		}
		summary = append(summary, res)
		if !res.OK {
			failures++
		}
		if *jsonMode {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obdrepro: %s failed: %v\n", e.name, err)
			continue
		}
		fmt.Print(out)
		if len(bad) == 0 {
			fmt.Println("shape check: OK")
		} else {
			fmt.Println("shape check: VIOLATIONS")
			for _, b := range bad {
				fmt.Println("  - " + b)
			}
		}
		fmt.Println()
	}
	if *jsonMode {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			fmt.Fprintln(os.Stderr, "obdrepro:", err)
			os.Exit(1)
		}
	}
	if failures > 0 {
		os.Exit(1)
	}
}
