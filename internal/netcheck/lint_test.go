package netcheck

import (
	"strings"
	"testing"

	"gobd/internal/fault"
	"gobd/internal/logic"
)

func mustGate(t *testing.T, c *logic.Circuit, name string, gt logic.GateType, out string, ins ...string) *logic.Gate {
	t.Helper()
	g, err := c.AddGate(name, gt, out, ins...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func codes(diags []Diagnostic) map[string]int {
	m := make(map[string]int)
	for _, d := range diags {
		m[d.Code]++
	}
	return m
}

func TestLintCleanCircuit(t *testing.T) {
	if diags := Lint(logic.C17()); len(diags) != 0 {
		t.Fatalf("c17 should lint clean, got %v", diags)
	}
}

func TestLintCycle(t *testing.T) {
	c := logic.New("cyc")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c, "g1", logic.Nand, "x", "a", "y")
	mustGate(t, c, "g2", logic.Inv, "y", "x")
	c.AddOutput("x")
	diags := Lint(c)
	var cyc *Diagnostic
	for i := range diags {
		if diags[i].Code == CodeCycle {
			cyc = &diags[i]
		}
	}
	if cyc == nil {
		t.Fatalf("cycle not reported: %v", diags)
	}
	if cyc.Severity != Error {
		t.Fatalf("cycle severity = %v, want error", cyc.Severity)
	}
	if len(cyc.Path) != 2 {
		t.Fatalf("cycle path = %v, want both gates", cyc.Path)
	}
	for _, g := range []string{"g1", "g2"} {
		if !strings.Contains(cyc.Message, g) {
			t.Fatalf("cycle message %q does not name gate %s", cyc.Message, g)
		}
	}
}

func TestLintFloatingNet(t *testing.T) {
	c := logic.New("float")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c, "g1", logic.Nand, "y", "a", "ghost")
	c.AddOutput("y")
	c.AddOutput("ghost2") // floating via the PO list
	diags := Lint(c)
	n := codes(diags)[CodeUndriven]
	if n != 2 {
		t.Fatalf("want 2 undriven-net diagnostics, got %d: %v", n, diags)
	}
}

func TestLintMultiDriven(t *testing.T) {
	c := logic.New("multi")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c, "g1", logic.Inv, "y", "a")
	// A second driver is only constructible by mutating the raw slice —
	// exactly the corruption the lint pass must still describe.
	c.Gates = append(c.Gates, &logic.Gate{Name: "g2", Type: logic.Inv, Inputs: []string{"a"}, Output: "y"})
	c.AddOutput("y")
	diags := Lint(c)
	found := false
	for _, d := range diags {
		if d.Code == CodeMultiDriven && d.Net == "y" &&
			strings.Contains(d.Message, "g1") && strings.Contains(d.Message, "g2") {
			found = true
		}
	}
	if !found {
		t.Fatalf("multi-driven net not reported with both drivers: %v", diags)
	}

	// A gate driving a declared primary input is the same class of error.
	c2 := logic.New("drivespi")
	if err := c2.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if err := c2.AddInput("b"); err != nil {
		t.Fatal(err)
	}
	c2.Gates = append(c2.Gates, &logic.Gate{Name: "g1", Type: logic.Inv, Inputs: []string{"a"}, Output: "b"})
	c2.AddOutput("b")
	if n := codes(Lint(c2))[CodeMultiDriven]; n != 1 {
		t.Fatalf("gate driving a PI not reported: %v", Lint(c2))
	}
}

func TestLintUnreachableGate(t *testing.T) {
	c := logic.New("dead")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c, "live", logic.Inv, "y", "a")
	mustGate(t, c, "dead1", logic.Inv, "z", "a")
	c.AddOutput("y")
	diags := Lint(c)
	found := false
	for _, d := range diags {
		if d.Code == CodeUnreachable {
			if d.Gate != "dead1" {
				t.Fatalf("wrong gate reported unreachable: %v", d)
			}
			if d.Severity != Warning {
				t.Fatalf("unreachable gate should be a warning: %v", d)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("dead gate not reported: %v", diags)
	}
}

func TestLintDanglingInputAndDupOutput(t *testing.T) {
	c := logic.New("dangle")
	for _, in := range []string{"a", "unused"} {
		if err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	mustGate(t, c, "g1", logic.Inv, "y", "a")
	c.AddOutput("y")
	c.Outputs = append(c.Outputs, "y") // duplicate declaration
	m := codes(Lint(c))
	if m[CodeDanglingPI] != 1 {
		t.Fatalf("dangling PI not reported: %v", Lint(c))
	}
	if m[CodeDupOutput] != 1 {
		t.Fatalf("duplicate PO not reported: %v", Lint(c))
	}
}

func TestReportErrorsGating(t *testing.T) {
	// Analyze must stop after lint when the circuit is structurally broken
	// (the downstream passes would panic on it).
	c := logic.New("cyc")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c, "g1", logic.Nand, "x", "a", "y")
	mustGate(t, c, "g2", logic.Inv, "y", "x")
	c.AddOutput("x")
	r := Analyze(c, Options{})
	if r.Errors() == 0 {
		t.Fatal("broken circuit reported no errors")
	}
	if r.Verdicts != nil || r.Constants != nil || r.HardFaults != nil || r.Exact != nil {
		t.Fatal("Analyze ran fault passes on a broken circuit")
	}
}

// seqCircuit builds a small healthy sequential netlist:
//
//	q = DFF(d); d = NAND(a, q); y = NOT(q)
func seqCircuit(t *testing.T) *logic.Circuit {
	t.Helper()
	c := logic.New("seq")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c, "q", logic.Dff, "q", "d")
	mustGate(t, c, "d", logic.Nand, "d", "a", "q")
	mustGate(t, c, "y", logic.Inv, "y", "q")
	c.AddOutput("y")
	return c
}

func TestLintSequentialClean(t *testing.T) {
	c := seqCircuit(t)
	if diags := Lint(c); len(diags) != 0 {
		t.Fatalf("healthy sequential circuit should lint clean, got %v", diags)
	}
}

func TestLintFFFloatingD(t *testing.T) {
	c := logic.New("ffd")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c, "q", logic.Dff, "q", "ghost") // samples an undriven net
	mustGate(t, c, "y", logic.And, "y", "a", "q")
	c.AddOutput("y")
	diags := Lint(c)
	m := codes(diags)
	if m[CodeFFFloatingD] != 1 {
		t.Fatalf("want 1 ff-floating-d diagnostic, got %v", diags)
	}
	if m[CodeUndriven] != 0 {
		t.Fatalf("floating D pin double-reported as undriven-net: %v", diags)
	}
	for _, d := range diags {
		if d.Code == CodeFFFloatingD && d.Severity != Error {
			t.Fatalf("ff-floating-d severity = %v, want error", d.Severity)
		}
	}
}

func TestLintFFUnobservableQ(t *testing.T) {
	c := logic.New("deadq")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c, "q", logic.Dff, "q", "d") // q feeds nothing
	mustGate(t, c, "d", logic.Inv, "d", "a")
	mustGate(t, c, "y", logic.Buf, "y", "a")
	c.AddOutput("y")
	diags := Lint(c)
	m := codes(diags)
	if m[CodeFFUnobservableQ] != 1 {
		t.Fatalf("want 1 ff-unobservable-q diagnostic, got %v", diags)
	}
	// The flip-flop itself must not also be flagged as generic dead logic.
	for _, d := range diags {
		if d.Code == CodeUnreachable && d.Gate == "q" {
			t.Fatalf("DFF double-reported as unreachable: %v", diags)
		}
	}
}

func TestLintFFSelfLoop(t *testing.T) {
	c := logic.New("selfloop")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c, "q", logic.Dff, "q", "q") // D == Q: frozen state bit
	mustGate(t, c, "y", logic.And, "y", "a", "q")
	c.AddOutput("y")
	diags := Lint(c)
	if codes(diags)[CodeFFSelfLoop] != 1 {
		t.Fatalf("want 1 ff-self-loop diagnostic, got %v", diags)
	}
}

// TestAnalyzeSequentialCore checks Analyze routes the fault-level passes
// of a DFF-bearing circuit through its combinational core: the report
// counts flip-flops and carries verdicts over the core's OBD universe,
// each the untestability view of the exact stanza's verdict.
func TestAnalyzeSequentialCore(t *testing.T) {
	c := seqCircuit(t)
	r := Analyze(c, Options{})
	if r.FFs != 1 {
		t.Fatalf("Report.FFs = %d, want 1", r.FFs)
	}
	if r.Errors() > 0 {
		t.Fatalf("unexpected error diagnostics: %v", r.Diagnostics)
	}
	core, err := c.CombinationalCore()
	if err != nil {
		t.Fatal(err)
	}
	coreFaults, _ := fault.OBDUniverse(core)
	if len(r.Verdicts) != len(coreFaults) {
		t.Fatalf("verdicts over %d faults, want the core universe %d", len(r.Verdicts), len(coreFaults))
	}
	if r.Exact == nil || r.Exact.Faults != len(coreFaults) {
		t.Fatalf("exact pass did not run over the core universe: %+v", r.Exact)
	}
	for i, v := range r.Verdicts {
		ev := r.Exact.Verdicts[i]
		if v.Fault != coreFaults[i].String() || v.Fault != ev.Fault ||
			v.Untestable != ev.Untestable() || v.Reason != ev.Reason {
			t.Fatalf("verdict %d %+v is not the view of exact verdict %+v", i, v, ev)
		}
	}
}
