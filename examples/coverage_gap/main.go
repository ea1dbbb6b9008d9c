// Coverage gap: the paper's central testing claim, demonstrated on two
// circuits — the built-in full adder and a small user-supplied netlist.
// Complete stuck-at and transition-fault test sets are generated with the
// traditional (input-insensitive) algorithms and then graded against the
// OBD fault universe; the OBD-aware generator closes the gap.
package main

import (
	"fmt"
	"log"

	"gobd"
)

// A small carry-select-style slice in the library's netlist format,
// showing the gap is not an artifact of the full adder.
const sliceNetlist = `circuit slice
input a b c d
output y z
nand g1 n1 a b
nand g2 n2 c d
inv  g3 n3 n1
nor  g4 n4 n2 c
nand g5 y n3 n4
nor  g6 z n1 n4
`

func main() {
	sched := gobd.NewScheduler(0)
	fa := gobd.FullAdderSumLogic()
	slice, err := gobd.ParseNetlist(sliceNetlist)
	if err != nil {
		log.Fatal(err)
	}
	for _, lc := range []*gobd.Circuit{fa, slice} {
		fmt.Printf("== %s (%d gates) ==\n", lc.Name, len(lc.Gates))
		obdFaults, skipped := gobd.OBDUniverse(lc)
		if len(skipped) > 0 {
			fmt.Printf("   (%d composite gates without OBD sites)\n", len(skipped))
		}
		ex, err := sched.AnalyzeExhaustive(lc, obdFaults)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   OBD universe: %d faults, %d testable\n", len(obdFaults), ex.TestableCount())

		// Traditional transition-fault ATPG, graded against OBD.
		tr, err := sched.GenerateTransitionTests(lc, gobd.TransitionUniverse(lc), nil)
		if err != nil {
			log.Fatal(err)
		}
		cov, err := sched.GradeOBD(lc, obdFaults, tr.Tests)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   transition test set (%d pairs): transition coverage %s, OBD coverage %s\n",
			len(tr.Tests), tr.Coverage, cov)

		// Stuck-at patterns chained into pairs, graded against OBD.
		sa, err := sched.GenerateStuckAtTests(lc, gobd.StuckAtUniverse(lc), nil)
		if err != nil {
			log.Fatal(err)
		}
		var chained []gobd.TwoPattern
		for i := 1; i < len(sa.Tests); i++ {
			chained = append(chained, gobd.TwoPattern{V1: sa.Tests[i-1], V2: sa.Tests[i]})
		}
		saCov, err := sched.GradeOBD(lc, obdFaults, chained)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   stuck-at set (%d patterns chained): OBD coverage %s\n", len(sa.Tests), saCov)

		// The OBD-aware generator.
		ob, err := sched.GenerateOBDTests(lc, obdFaults, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("   OBD-aware ATPG (%d pairs): OBD coverage %s\n", len(ob.Tests), ob.Coverage)
		for _, missed := range cov.Undetected {
			detected := true
			for _, u := range ob.Coverage.Undetected {
				if u == missed {
					detected = false
					break
				}
			}
			if detected {
				fmt.Printf("   e.g. %s: missed by transition tests, caught by OBD ATPG\n", missed)
				break
			}
		}
		fmt.Println()
	}
}
