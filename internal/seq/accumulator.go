package seq

import (
	"fmt"

	"gobd/internal/logic"
)

// Accumulator builds an n-bit accumulator: a ripple-carry adder whose sum
// feeds back into its A operand through the scan chain. Inputs b0..b{n-1}
// and cin stay primary; the sum and carry-out are observable. It is the
// standard small sequential testbed for the scan-mode comparisons.
func Accumulator(n int) (*Circuit, error) {
	core := logic.RippleCarryAdder(n)
	ffs := make([]FF, n)
	for i := 0; i < n; i++ {
		ffs[i] = FF{Q: fmt.Sprintf("a%d", i), D: fmt.Sprintf("s%d", i)}
	}
	return build(core, ffs)
}

// Doubler builds an n-bit doubler: both adder operands are fed from the
// registered sum (next = 2·state + cin), leaving cin as the only primary
// input. With almost no free inputs, the functional launch constraints
// (launch-on-capture, launch-on-shift) bite hard — the testbed where the
// scan-mode coverage gaps become visible.
func Doubler(n int) (*Circuit, error) {
	core := logic.RippleCarryAdder(n)
	ffs := make([]FF, 0, 2*n)
	for i := 0; i < n; i++ {
		ffs = append(ffs, FF{Q: fmt.Sprintf("a%d", i), D: fmt.Sprintf("s%d", i)})
	}
	for i := 0; i < n; i++ {
		ffs = append(ffs, FF{Q: fmt.Sprintf("b%d", i), D: fmt.Sprintf("s%d", i)})
	}
	return build(core, ffs)
}
