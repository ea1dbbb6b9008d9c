// Full adder: the paper's Section 4.3 experiment end to end. The gate-level
// half runs the OBD census and ATPG on the reconstructed Fig. 8 circuit
// (14 NAND + 11 INV, depth 9); the analog half elaborates the same circuit
// to transistors, injects a breakdown into the mid-path NAND, and shows the
// fault effect propagating four logic stages to the sum output as a delay.
package main

import (
	"fmt"
	"log"

	"gobd"
)

func main() {
	sched := gobd.NewScheduler(0)
	lc := gobd.FullAdderSumLogic()
	fmt.Printf("circuit %s: %d gates, depth %d\n", lc.Name, len(lc.Gates), lc.Depth())

	// ---- Gate level: census, exhaustive analysis, ATPG ----
	faults, _ := gobd.OBDUniverse(lc)
	fmt.Printf("OBD fault universe: %d locations\n", len(faults))

	ex, err := sched.AnalyzeExhaustive(lc, faults)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exhaustive analysis: %d of %d faults testable over %d input transitions\n",
		ex.TestableCount(), len(faults), len(ex.Pairs))

	cover := ex.GreedyCover()
	fmt.Printf("a %d-transition set covers every testable fault:\n", len(cover))
	for _, tp := range cover {
		fmt.Println("  " + tp.StringFor(lc))
	}

	ts, err := sched.GenerateOBDTests(lc, faults, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PODEM-based OBD ATPG: %d vector pairs, coverage %s\n", len(ts.Tests), ts.Coverage)

	// ---- Analog level: inject into the mid-path NAND and watch the sum ----
	target := gobd.FullAdderTarget
	var tf gobd.OBDFault
	for _, f := range faults {
		if f.Gate.Name == target && f.Side == gobd.PullDown && f.Input == 0 {
			tf = f
		}
	}
	tp, st := gobd.GenerateOBDTest(lc, tf, nil)
	if st.String() != "detected" {
		log.Fatalf("ATPG could not justify a test for %s: %v", tf, st)
	}
	fmt.Printf("\njustified stimulus for %s: %s\n", tf, tp.StringFor(lc))

	p := gobd.DefaultProcess()
	run := func(stage gobd.Stage) float64 {
		rig, err := gobd.NewFullAdderRig(p)
		if err != nil {
			log.Fatal(err)
		}
		inj := gobd.Inject(rig.B.C, "defect", rig.Cells[target].FET(gobd.PullDown, 0), gobd.FaultFree)
		inj.SetStage(stage)
		if err := rig.Apply(tp.V1, tp.V2, 1e-9, 50e-12); err != nil {
			log.Fatal(err)
		}
		res, err := rig.Run(4e-9, 2e-12)
		if err != nil {
			log.Fatal(err)
		}
		s := res.V("s")
		// 50% crossing of the sum output after the stimulus edge.
		half := p.VDD / 2
		for i := 1; i < len(res.Times); i++ {
			if res.Times[i] < 1e-9 {
				continue
			}
			if (s[i-1] < half) != (s[i] < half) {
				return res.Times[i] - 1.025e-9
			}
		}
		return -1
	}
	dFF := run(gobd.FaultFree)
	dMBD := run(gobd.MBD2)
	fmt.Printf("sum-output delay through 9 logic levels: fault-free %.0f ps, MBD2 %.0f ps (+%.0f%%)\n",
		dFF*1e12, dMBD*1e12, 100*(dMBD-dFF)/dFF)
}
