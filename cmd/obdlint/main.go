// Command obdlint runs the internal/netcheck static analyzer over
// gate-level netlists: structural lint diagnostics, SAT-proved constant
// nets (each with a RUP proof refuting its other value), the exact OBD
// census (testable with a witness pair, untestable with RUP proofs, or
// aborted under the conflict budget), and a SCOAP ranking of the hardest
// faults the census did not prove untestable.
//
// Examples:
//
//	obdlint -circuit fulladder
//	obdlint -netlist mydesign.net -json
//	obdlint -circuit fulladder -proofs
//	obdlint -circuit c17 -circuit rca4 -no-faults
//	obdlint -netlist s27.bench
//
// Sequential (DFF-bearing) netlists are linted whole — including
// scan-chain diagnostics like floating D pins and unobservable state
// bits — and then the fault-level passes run over the combinational core
// (state bits as pseudo-inputs, next-state functions as pseudo-outputs).
//
// The exit status is 2 on a usage error (a negative -top) or when any
// circuit carries Error-severity diagnostics (a netlist Validate would
// refuse), 0 otherwise — warnings, constants and untestable faults are
// reported but do not fail the run, so redundant-by-design circuits like
// the paper's full adder stay green in CI.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gobd/internal/cells"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
)

// circuitList collects repeatable -circuit flags.
type circuitList []string

func (c *circuitList) String() string     { return strings.Join(*c, ",") }
func (c *circuitList) Set(s string) error { *c = append(*c, s); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, analyzes every requested circuit,
// writes the reports to stdout and diagnostics to stderr, and returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var circuits circuitList
	var (
		netlist  = fs.String("netlist", "", "netlist file (.bench = ISCAS-85, .v = structural Verilog, otherwise the internal/logic format)")
		jsonMode = fs.Bool("json", false, "emit the reports as a JSON array")
		noFaults = fs.Bool("no-faults", false, "skip the exact OBD census and hard-fault passes")
		proofs   = fs.Bool("proofs", false, "print the RUP proof length behind each constant and the testable faults' witness pairs")
		topHard  = fs.Int("top", 10, "hard-fault ranking length (0 = all)")
	)
	fs.Var(&circuits, "circuit", "built-in circuit (fulladder, c17, mux41, rca<N>, parity<N>); repeatable")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *topHard < 0 {
		fmt.Fprintf(stderr, "obdlint: -top must be >= 0, got %d\n", *topHard)
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintln(stderr, "obdlint:", err)
		return 1
	}

	var targets []*logic.Circuit
	for _, name := range circuits {
		c, err := builtin(name)
		if err != nil {
			return fail(err)
		}
		targets = append(targets, c)
	}
	if *netlist != "" {
		var c *logic.Circuit
		var err error
		switch strings.ToLower(filepath.Ext(*netlist)) {
		case ".bench", ".v":
			// ParseFile names an unnamed circuit (every .bench one) after
			// the file.
			c, err = logic.ParseFile(*netlist)
		default:
			// Lenient: structurally broken circuits are exactly what the
			// lint passes are for; only line-level syntax errors fail here.
			var f *os.File
			if f, err = os.Open(*netlist); err == nil {
				c, err = logic.ParseLenient(f)
				f.Close()
			}
		}
		if err != nil {
			return fail(err)
		}
		targets = append(targets, c)
	}
	if len(targets) == 0 {
		return fail(fmt.Errorf("need -netlist FILE or -circuit NAME"))
	}

	var reports []*netcheck.Report
	for _, c := range targets {
		reports = append(reports, netcheck.Analyze(c, netcheck.Options{
			SkipFaults: *noFaults,
			TopHard:    *topHard,
		}))
	}

	if *jsonMode {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return fail(err)
		}
	} else {
		for _, r := range reports {
			printReport(stdout, r, *proofs)
		}
	}
	for _, r := range reports {
		if r.Errors() > 0 {
			return 2
		}
	}
	return 0
}

// builtin resolves a named bench circuit, with numeric suffixes for the
// parameterized families.
func builtin(name string) (*logic.Circuit, error) {
	switch name {
	case "fulladder":
		return cells.FullAdderSumLogic(), nil
	case "c17":
		return logic.C17(), nil
	case "mux41":
		return logic.Mux41(), nil
	}
	if s, ok := strings.CutPrefix(name, "rca"); ok {
		if n, err := strconv.Atoi(s); err == nil && n >= 1 {
			return logic.RippleCarryAdder(n), nil
		}
	}
	if s, ok := strings.CutPrefix(name, "parity"); ok {
		if n, err := strconv.Atoi(s); err == nil && n >= 2 {
			return logic.ParityTree(n), nil
		}
	}
	return nil, fmt.Errorf("unknown circuit %q (want fulladder, c17, mux41, rca<N>, parity<N>)", name)
}

func printReport(w io.Writer, r *netcheck.Report, proofs bool) {
	fmt.Fprintf(w, "circuit %s: %d inputs, %d outputs, %d gates\n",
		r.Circuit, r.Inputs, r.Outputs, r.Gates)
	if r.FFs > 0 {
		fmt.Fprintf(w, "  sequential: %d flip-flops; fault passes ran on the combinational core\n", r.FFs)
	}
	for _, d := range r.Diagnostics {
		fmt.Fprintf(w, "  %s\n", d)
	}
	if proofs {
		for _, k := range r.Constants {
			fmt.Fprintf(w, "  proof of %s=%v: %d-lemma RUP proof\n", k.Net, k.Val, len(k.Proof))
		}
	}
	if r.Exact != nil {
		fmt.Fprintf(w, "  exact: %d faults, %d testable, %d untestable, %d aborted\n",
			r.Exact.Faults, r.Exact.Testable, r.Exact.Untestable, r.Exact.Aborted)
		for _, v := range r.Exact.Verdicts {
			switch {
			case v.Aborted:
				fmt.Fprintf(w, "    aborted %s (conflict budget exhausted)\n", v.Fault)
			case v.Testable:
				if proofs {
					fmt.Fprintf(w, "    testable %s: witness pair %s\n", v.Fault, v.Witness.Pair)
				}
			default:
				fmt.Fprintf(w, "    untestable %s: %s (%d pair refutations)\n", v.Fault, v.Reason, len(v.Pairs))
			}
		}
	}
	if len(r.HardFaults) > 0 {
		fmt.Fprintf(w, "  hardest surviving faults (SCOAP cost = CC + CO):\n")
		for i, h := range r.HardFaults {
			fmt.Fprintf(w, "    %2d. %-14s cost %3d (cc %d, co %d) cheapest pair %s\n",
				i+1, h.Fault, h.Cost, h.CC, h.CO, h.Pair)
		}
	}
}
