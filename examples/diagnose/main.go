// Diagnose: the "diagnose" leg of the paper's concurrent
// test/diagnose/repair loop. A fault dictionary is built from the OBD test
// set's simulated responses; an observed failure (here: a hidden defect we
// simulate, plus a noisy variant) is matched back to candidate defective
// transistors.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"gobd"
	"gobd/internal/atpg"
	"gobd/internal/diag"
	"gobd/internal/fault"
)

func main() {
	lc := gobd.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(lc)
	ts, err := atpg.NewScheduler(0).GenerateOBDTests(lc, faults, nil)
	if err != nil {
		log.Fatal(err)
	}
	dict := diag.Build(lc, faults, ts.Tests)
	fmt.Printf("dictionary: %d faults x %d tests, %d uniquely diagnosable\n",
		len(faults), len(ts.Tests), dict.UniquelyDiagnosable())

	// Pretend transistor NMOS@cn of the mid-path NAND "g" broke down.
	var hidden fault.OBD
	for _, f := range faults {
		if f.Gate.Name == gobd.FullAdderTarget && f.Side == fault.PullDown && f.Input == 1 {
			hidden = f
		}
	}
	fmt.Printf("hidden defect: %s\n", hidden)

	obs := diag.SimulateResponse(lc, hidden, ts.Tests)
	cands, dist, err := dict.Diagnose(obs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean observation -> %d candidate(s) at distance %d:\n", len(cands), dist)
	for _, ci := range cands {
		fmt.Printf("  %s\n", faults[ci])
	}

	// A tester dropped one pass/fail bit: nearest-match still localizes.
	rng := rand.New(rand.NewSource(3))
	noisy := make(diag.Response, len(obs))
	for i := range obs {
		noisy[i] = append([]bool(nil), obs[i]...)
	}
	ri := rng.Intn(len(noisy))
	noisy[ri][0] = !noisy[ri][0]
	cands, dist, err = dict.Diagnose(noisy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("noisy observation -> %d candidate(s) at distance %d\n", len(cands), dist)
	hit := false
	for _, ci := range cands {
		if faults[ci] == hidden {
			hit = true
		}
	}
	fmt.Printf("true defect among candidates: %v\n", hit)
}
