package exper

import (
	"strings"
	"testing"

	"gobd/internal/cells"
	"gobd/internal/logic"
	"gobd/internal/obd"
	"gobd/internal/spice"
)

func TestExcitationSets(t *testing.T) {
	e, err := RunExcitationSets()
	if err != nil {
		t.Fatal(err)
	}
	if bad := e.Check(); len(bad) != 0 {
		t.Fatalf("violations: %v", bad)
	}
	out := e.Format()
	for _, want := range []string{"nand2", "(11,01)", "minimum cover"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestFullAdderCounts(t *testing.T) {
	f, err := RunFullAdderCounts()
	if err != nil {
		t.Fatal(err)
	}
	if bad := f.Check(); len(bad) != 0 {
		t.Fatalf("violations: %v\n%s", bad, f.Format())
	}
	t.Log("\n" + f.Format())
}

func TestCoverageGapFullAdder(t *testing.T) {
	g, err := RunCoverageGap("fulladder_sum", cells.FullAdderSumLogic())
	if err != nil {
		t.Fatal(err)
	}
	if bad := g.Check(); len(bad) != 0 {
		t.Fatalf("violations: %v\n%s", bad, g.Format())
	}
	t.Log("\n" + g.Format())
}

func TestEMComparison(t *testing.T) {
	e, err := RunEMComparison()
	if err != nil {
		t.Fatal(err)
	}
	if bad := e.Check(); len(bad) != 0 {
		t.Fatalf("violations: %v", bad)
	}
}

func TestTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("80 transients")
	}
	tab, err := RunTable1(spice.Default350())
	if err != nil {
		t.Fatal(err)
	}
	if bad := tab.Check(); len(bad) != 0 {
		t.Fatalf("violations: %v\n%s", bad, tab.Format())
	}
	t.Log("\n" + tab.Format())
}

func TestFigure4(t *testing.T) {
	f, err := RunFigure4(spice.Default350())
	if err != nil {
		t.Fatal(err)
	}
	if bad := f.Check(); len(bad) != 0 {
		t.Fatalf("violations: %v\n%s", bad, f.Format())
	}
}

func TestFigure6(t *testing.T) {
	if testing.Short() {
		t.Skip("10 transients")
	}
	f, err := RunFigure6(spice.Default350())
	if err != nil {
		t.Fatal(err)
	}
	if bad := f.Check(); len(bad) != 0 {
		t.Fatalf("violations: %v\n%s", bad, f.Format())
	}
}

func TestFigure7(t *testing.T) {
	if testing.Short() {
		t.Skip("4 transients")
	}
	f, err := RunFigure7(spice.Default350())
	if err != nil {
		t.Fatal(err)
	}
	if bad := f.Check(); len(bad) != 0 {
		t.Fatalf("violations: %v\n%s", bad, f.Format())
	}
}

func TestFigure9(t *testing.T) {
	if testing.Short() {
		t.Skip("8 full-adder transients")
	}
	f, err := RunFigure9(spice.Default350(), obd.MBD2)
	if err != nil {
		t.Fatal(err)
	}
	if bad := f.Check(); len(bad) != 0 {
		t.Fatalf("violations: %v\n%s", bad, f.Format())
	}
	t.Log("\n" + f.Format())
}

func TestDetectionWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("progression transients")
	}
	d, err := RunDetectionWindow(spice.Default350(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if bad := d.Check(); len(bad) != 0 {
		t.Fatalf("violations: %v\n%s", bad, d.Format())
	}
	t.Log("\n" + d.Format())
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("transients")
	}
	p := spice.Default350()
	n, err := RunAblationNetwork(p)
	if err != nil {
		t.Fatal(err)
	}
	if bad := n.Check(); len(bad) != 0 {
		t.Fatalf("network ablation violations: %v\n%s", bad, n.Format())
	}
	d, err := RunAblationDriver(p)
	if err != nil {
		t.Fatal(err)
	}
	if bad := d.Check(); len(bad) != 0 {
		t.Fatalf("driver ablation violations: %v\n%s", bad, d.Format())
	}
	i, err := RunAblationInjection(p)
	if err != nil {
		t.Fatal(err)
	}
	if bad := i.Check(); len(bad) != 0 {
		t.Fatalf("injection ablation violations: %v\n%s", bad, i.Format())
	}
	t.Log("\n" + n.Format() + d.Format() + i.Format())
}

func TestRuleValidationNANDNOR(t *testing.T) {
	if testing.Short() {
		t.Skip("60 transients")
	}
	p := spice.Default350()
	for _, tc := range []struct {
		typ   logic.GateType
		arity int
	}{{logic.Nand, 2}, {logic.Nor, 2}} {
		v, err := RunRuleValidation(p, tc.typ, tc.arity, obd.MBD2)
		if err != nil {
			t.Fatal(err)
		}
		if bad := v.Check(); len(bad) != 0 {
			t.Errorf("violations: %v\n%s", bad, v.Format())
		}
	}
}

func TestRuleValidationAOI(t *testing.T) {
	if testing.Short() {
		t.Skip("210 transients")
	}
	v, err := RunRuleValidation(spice.Default350(), logic.Aoi21, 3, obd.MBD2)
	if err != nil {
		t.Fatal(err)
	}
	if bad := v.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, v.Format())
	}
	// The complex gate must still show per-fault ordering for all six
	// faults, and the static corruptions outside the excitation set are a
	// documented divergence, not an accident: they must all be NMOS sites.
	for _, s := range v.StaticCorruptions() {
		if !strings.Contains(s.Fault, "NMOS") {
			t.Errorf("unexpected PMOS static corruption: %s %s", s.Fault, s.Pair)
		}
	}
}

func TestIDDQ(t *testing.T) {
	if testing.Short() {
		t.Skip("operating points")
	}
	q, err := RunIDDQ(spice.Default350())
	if err != nil {
		t.Fatal(err)
	}
	if bad := q.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, q.Format())
	}
	t.Log("\n" + q.Format())
}

func TestCaptureSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization transients")
	}
	cs, err := RunCaptureSweep(spice.Default350())
	if err != nil {
		t.Fatal(err)
	}
	if bad := cs.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, cs.Format())
	}
	t.Log("\n" + cs.Format())
}

// TestScanComparison pins the EXPERIMENTS.md Section 5 table: enhanced
// and launch-on-shift coverage per circuit, every LOS verdict exact.
func TestScanComparison(t *testing.T) {
	s, err := RunScanComparison()
	if err != nil {
		t.Fatal(err)
	}
	if bad := s.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, s.Format())
	}
	want := []struct {
		name            string
		total, enh, los int
	}{
		{"fulladder_sum", 78, 65, 52},
		{"c17", 24, 24, 21},
		{"parity4", 48, 48, 42},
		{"mux41", 60, 60, 52},
	}
	if len(s.Rows) != len(want) {
		t.Fatalf("%d rows, want %d\n%s", len(s.Rows), len(want), s.Format())
	}
	for i, w := range want {
		r := s.Rows[i]
		if r.Name != w.name || r.Universe != w.total || r.Enhanced.Total != w.total || r.LOS.Total != w.total ||
			r.Enhanced.Detected != w.enh || r.LOS.Detected != w.los || !r.LOSExact {
			t.Errorf("row %d: %s %d faults, enhanced %v, LOS %v exact=%v; want %s %d/%d enhanced, %d/%d LOS exact",
				i, r.Name, r.Universe, r.Enhanced, r.LOS, r.LOSExact, w.name, w.enh, w.total, w.los, w.total)
		}
	}
	t.Log("\n" + s.Format())
}

func TestGapSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive analyses")
	}
	g, err := RunGapSuite()
	if err != nil {
		t.Fatal(err)
	}
	if bad := g.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, g.Format())
	}
	t.Log("\n" + g.Format())
}

func TestSeqModes(t *testing.T) {
	s, err := RunSeqModes()
	if err != nil {
		t.Fatal(err)
	}
	if bad := s.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, s.Format())
	}
	t.Log("\n" + s.Format())
}

func TestDiagnosis(t *testing.T) {
	d, err := RunDiagnosis()
	if err != nil {
		t.Fatal(err)
	}
	if bad := d.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, d.Format())
	}
	t.Log("\n" + d.Format())
}

func TestConcurrentSim(t *testing.T) {
	if testing.Short() {
		t.Skip("progression characterization transients")
	}
	c, err := RunConcurrentSim(spice.Default350())
	if err != nil {
		t.Fatal(err)
	}
	if bad := c.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, c.Format())
	}
	t.Log("\n" + c.Format())
}

func TestNDetect(t *testing.T) {
	nd, err := RunNDetect()
	if err != nil {
		t.Fatal(err)
	}
	if bad := nd.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, nd.Format())
	}
	t.Log("\n" + nd.Format())
}

func TestSupplyRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("12 transients")
	}
	r, err := RunSupplyRobustness(spice.Default350())
	if err != nil {
		t.Fatal(err)
	}
	if bad := r.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, r.Format())
	}
	t.Log("\n" + r.Format())
}

func TestBIST(t *testing.T) {
	b, err := RunBIST()
	if err != nil {
		t.Fatal(err)
	}
	if bad := b.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, b.Format())
	}
	t.Log("\n" + b.Format())
}

func TestDetectProfile(t *testing.T) {
	d, err := RunDetectProfile()
	if err != nil {
		t.Fatal(err)
	}
	if bad := d.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, d.Format())
	}
	t.Log("\n" + d.Format())
}

func TestATPGGuidance(t *testing.T) {
	g, err := RunATPGGuidance()
	if err != nil {
		t.Fatal(err)
	}
	if bad := g.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, g.Format())
	}
	t.Log("\n" + g.Format())
}

func TestNORTable(t *testing.T) {
	if testing.Short() {
		t.Skip("80 transients")
	}
	r, err := RunNORTable(spice.Default350())
	if err != nil {
		t.Fatal(err)
	}
	if bad := r.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, r.Format())
	}
	t.Log("\n" + r.Format())
}

func TestEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("4 transients")
	}
	e, err := RunEnergy(spice.Default350())
	if err != nil {
		t.Fatal(err)
	}
	if bad := e.Check(); len(bad) != 0 {
		t.Errorf("violations: %v\n%s", bad, e.Format())
	}
	t.Log("\n" + e.Format())
}
