package gobd_test

import (
	"context"
	"strings"
	"testing"

	"gobd"
)

// TestPublicAPIEndToEnd drives the whole public facade the way a
// downstream user would: build a circuit, enumerate faults, generate and
// grade tests, derive excitation sets, wrap in a scan chain, run the
// timing simulator, build a dictionary, and touch the analog layer.
func TestPublicAPIEndToEnd(t *testing.T) {
	sched := gobd.NewScheduler(0)
	// Gate level.
	c, err := gobd.ParseNetlist("circuit g\ninput a b\noutput y\nnand g1 y a b\n")
	if err != nil {
		t.Fatal(err)
	}
	faults, _ := gobd.OBDUniverse(c)
	if len(faults) != 4 {
		t.Fatalf("universe %d", len(faults))
	}
	ts := must(sched.GenerateOBDTests(c, faults, nil))
	if ts.Coverage.Ratio() != 1 {
		t.Fatalf("coverage %v", ts.Coverage)
	}
	if cov, err := sched.GradeOBD(c, faults, ts.Tests); err != nil || cov.Detected != 4 {
		t.Fatalf("grade %v %v", cov, err)
	}
	cover, err := gobd.MinimalPairCover(c.Gates[0].Type, 2)
	if err != nil || len(cover) != 3 {
		t.Fatalf("cover %v %v", cover, err)
	}
	table, err := gobd.GatePairTable(c.Gates[0].Type, 2)
	if err != nil || len(table) != 4 {
		t.Fatalf("table %v %v", table, err)
	}
	if out := gobd.FormatNetlist(c); !strings.Contains(out, "nand g1 y a b") {
		t.Fatalf("format %q", out)
	}

	// Benchmark circuits and the full adder.
	if got := len(gobd.C17().Gates); got != 6 {
		t.Fatalf("c17 gates %d", got)
	}
	fa := gobd.FullAdderSumLogic()
	if fa.Depth() != 9 {
		t.Fatalf("full adder depth %d", fa.Depth())
	}

	// Scheduling.
	curve := []gobd.DelayPoint{{T: 0, Delay: 100e-12}, {T: 3600, Delay: 400e-12}}
	w, err := gobd.ComputeWindow(curve, 100e-12, 100e-12, 3600)
	if err != nil || !w.Detectable {
		t.Fatalf("window %v %v", w, err)
	}

	// Sequential wrapper.
	acc, err := gobd.Accumulator(2)
	if err != nil {
		t.Fatal(err)
	}
	accFaults, _ := gobd.OBDUniverse(acc.Core)
	if res, err := gobd.GenerateScanTests(sched, acc, accFaults, gobd.LOCStyle, nil); err != nil || res.Coverage.Total == 0 {
		t.Fatalf("LOC generation %+v %v", res, err)
	}

	// Timing simulation + VCD.
	sim, err := gobd.NewTimingSimulator(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	v1 := gobd.Pattern{"a": 1, "b": 1}
	v2 := gobd.Pattern{"a": 0, "b": 1}
	good, err := sim.Run(v1, v2, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := sim.Run(v1, v2, []gobd.DelayPenalty{{GateName: "g1", Rising: true, Extra: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	if !gobd.DetectsAtCapture(c, good, faulty, good.SettleTime()+1e-12) {
		t.Fatal("timing detection failed")
	}
	if vcd := gobd.TraceVCD(good, "g"); !strings.Contains(vcd, "$timescale") {
		t.Fatal("vcd broken")
	}

	// Diagnosis.
	dict := gobd.NewFaultDictionary(c, faults, ts.Tests)
	sig := gobd.SimulateResponse(c, faults[0], ts.Tests)
	cands, dist, err := dict.Diagnose(sig)
	if err != nil || dist != 0 || len(cands) == 0 {
		t.Fatalf("diagnose %v %d %v", cands, dist, err)
	}

	// Structural fingerprint: invariant under net renaming.
	fp, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	renamed, err := gobd.ParseNetlist("circuit g2\ninput a b\noutput out\nnand u1 out a b\n")
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := renamed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp != fp2 {
		t.Fatalf("fingerprint not rename-invariant: %s vs %s", fp, fp2)
	}

	// Mission facade.
	camp, err := gobd.NewMissionCampaign(gobd.MissionConfig{
		Circuit: c, Seed: 1, Chips: 2, Duration: 100, FaultRate: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := camp.Run(context.Background())
	if err != nil || rep.Chips != 2 {
		t.Fatalf("mission %+v %v", rep, err)
	}

	// Analog layer construction through the facade.
	ac := gobd.NewAnalogCircuit()
	if ac.NumNodes() != 1 {
		t.Fatal("fresh circuit should contain only ground")
	}
}

// TestPublicAPIAnalog exercises the analog facade path with a real solve.
func TestPublicAPIAnalog(t *testing.T) {
	p := gobd.DefaultProcess()
	h := gobd.NewNANDHarness(p, 0)
	inj := gobd.Inject(h.B.C, "f", h.FETFor(gobd.PullDown, 0), gobd.FaultFree)
	inj.SetStage(gobd.MBD1)
	if inj.Stage != gobd.MBD1 {
		t.Fatal("stage not set")
	}
	pr, err := gobd.ParsePair("(01,11)")
	if err != nil {
		t.Fatal(err)
	}
	h.Apply(pr, 0.3e-9, 50e-12)
	res, err := h.Run(1.5e-9, 2e-12)
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.Measure(res, pr, 0.3e-9, 50e-12)
	if err != nil {
		t.Fatal(err)
	}
	if m.Delay <= 0 && m.Kind.String() == "ok" {
		t.Fatalf("measurement %+v", m)
	}
	if nl := gobd.AnalogNetlist(h.B.C); !strings.Contains(nl, ".end") {
		t.Fatal("netlist broken")
	}
	prog := gobd.NewProgression(gobd.NMOS)
	if prog.Window <= 0 {
		t.Fatal("progression window")
	}
	if len(gobd.Stages()) != 5 {
		t.Fatal("stages")
	}
}
