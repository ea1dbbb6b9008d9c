// Command obdlint runs the internal/netcheck static analyzer over
// gate-level netlists: structural lint diagnostics, implication-proved
// constant nets, the exact OBD census (testable with a witness pair,
// untestable with RUP proofs, or aborted under the conflict budget), and
// a SCOAP ranking of the hardest faults the census did not prove
// untestable.
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
	"flag"
	"fmt"
	"os"
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
	var circuits circuitList
	var (
		netlist  = flag.String("netlist", "", "netlist file (.v = structural Verilog, otherwise the internal/logic format)")
		jsonMode = flag.Bool("json", false, "emit the reports as a JSON array")
		noFaults = flag.Bool("no-faults", false, "skip the exact OBD census and hard-fault passes")
		proofs   = flag.Bool("proofs", false, "print the implication chains behind constants and the testable faults' witness pairs")
		topHard  = flag.Int("top", 10, "hard-fault ranking length (0 = all)")
	)
	flag.Var(&circuits, "circuit", "built-in circuit (fulladder, c17, mux41, rca<N>, parity<N>); repeatable")
	flag.Parse()
	if *topHard < 0 {
		fmt.Fprintf(os.Stderr, "obdlint: -top must be >= 0, got %d\n", *topHard)
		os.Exit(2)
	}

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "obdlint:", err)
		os.Exit(1)
	}

	var targets []*logic.Circuit
	for _, name := range circuits {
		c, err := builtin(name)
		if err != nil {
			die(err)
		}
		targets = append(targets, c)
	}
	if *netlist != "" {
		f, err := os.Open(*netlist)
		if err != nil {
			die(err)
		}
		var c *logic.Circuit
		if strings.HasSuffix(*netlist, ".v") {
			c, err = logic.ParseVerilog(f)
		} else if strings.HasSuffix(*netlist, ".bench") {
			c, err = logic.ParseBench(f)
		} else {
			// Lenient: structurally broken circuits are exactly what the
			// lint passes are for; only line-level syntax errors die here.
			c, err = logic.ParseLenient(f)
		}
		f.Close()
		if err != nil {
			die(err)
		}
		targets = append(targets, c)
	}
	if len(targets) == 0 {
		die(fmt.Errorf("need -netlist FILE or -circuit NAME"))
	}

	var reports []*netcheck.Report
	for _, c := range targets {
		reports = append(reports, netcheck.Analyze(c, netcheck.Options{
			SkipFaults: *noFaults,
			TopHard:    *topHard,
		}))
	}

	if *jsonMode {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			die(err)
		}
	} else {
		for _, r := range reports {
			printReport(r, *proofs)
		}
	}
	for _, r := range reports {
		if r.Errors() > 0 {
			os.Exit(2)
		}
	}
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

func printReport(r *netcheck.Report, proofs bool) {
	fmt.Printf("circuit %s: %d inputs, %d outputs, %d gates\n",
		r.Circuit, r.Inputs, r.Outputs, r.Gates)
	if r.FFs > 0 {
		fmt.Printf("  sequential: %d flip-flops; fault passes ran on the combinational core\n", r.FFs)
	}
	for _, d := range r.Diagnostics {
		fmt.Printf("  %s\n", d)
	}
	if proofs {
		for _, k := range r.Constants {
			fmt.Printf("  proof of %s=%v:\n", k.Net, k.Val)
			printProof(k.Proof)
		}
	}
	if r.Exact != nil {
		fmt.Printf("  exact: %d faults, %d testable, %d untestable, %d aborted\n",
			r.Exact.Faults, r.Exact.Testable, r.Exact.Untestable, r.Exact.Aborted)
		for _, v := range r.Exact.Verdicts {
			switch {
			case v.Aborted:
				fmt.Printf("    aborted %s (conflict budget exhausted)\n", v.Fault)
			case v.Testable:
				if proofs {
					fmt.Printf("    testable %s: witness pair %s\n", v.Fault, v.Witness.Pair)
				}
			default:
				fmt.Printf("    untestable %s: %s (%d pair refutations)\n", v.Fault, v.Reason, len(v.Pairs))
			}
		}
	}
	if len(r.HardFaults) > 0 {
		fmt.Printf("  hardest surviving faults (SCOAP cost = CC + CO):\n")
		for i, h := range r.HardFaults {
			fmt.Printf("    %2d. %-14s cost %3d (cc %d, co %d) cheapest pair %s\n",
				i+1, h.Fault, h.Cost, h.CC, h.CO, h.Pair)
		}
	}
}

func printProof(p netcheck.Proof) {
	for _, s := range p {
		fmt.Printf("        %s\n", s)
	}
}
