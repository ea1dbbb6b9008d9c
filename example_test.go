package gobd_test

import (
	"fmt"
	"sort"

	"gobd"
)

// Example reproduces the paper's core testing insight in a few lines of
// public API: the NAND gate's four OBD defects need three specific input
// sequences — two of which no transition-fault generator is forced to
// pick.
func Example() {
	c, _ := gobd.ParseNetlist("circuit g\ninput a b\noutput y\nnand g1 y a b\n")
	faults, _ := gobd.OBDUniverse(c)
	ts := must(gobd.NewScheduler(0).GenerateOBDTests(c, faults, nil))
	var vecs []string
	for _, tp := range ts.Tests {
		vecs = append(vecs, tp.StringFor(c))
	}
	sort.Strings(vecs)
	fmt.Println("coverage:", ts.Coverage)
	fmt.Println("vectors: ", vecs)
	// Output:
	// coverage: 4/4 (100.0%)
	// vectors:  [(00,11) (11,01) (11,10)]
}

// ExampleMinimalPairCover derives the paper's Section 5 result for NOR.
func ExampleMinimalPairCover() {
	cover, _ := gobd.MinimalPairCover(gobd.C17().Gates[0].Type, 2) // a NAND
	fmt.Println(len(cover), "sequences cover all four NAND OBD defects")
	// Output:
	// 3 sequences cover all four NAND OBD defects
}
