// Package logic models gate-level combinational circuits: construction and
// validation, levelization, three-valued and 64-way bit-parallel
// evaluation, and a small netlist text format. It is the structural layer
// under the fault model and ATPG packages, mirroring how the paper lifts
// its transistor-level OBD analysis to gate-level test generation.
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// GateType enumerates the supported gate functions.
type GateType int

// Gate types. NAND/NOR/AND/OR accept 2+ inputs; INV and BUF exactly one;
// XOR/XNOR exactly two; AOI21/OAI21 exactly three (inputs a, b, c with
// AOI21 = !(a·b + c) and OAI21 = !((a+b)·c)). DFF is the one sequential
// element: a D flip-flop with exactly one input (D) whose output net is
// the stored state Q. The clock is implicit (single global edge). For
// combinational analysis Q is a level-0 pseudo primary input and D a
// pseudo primary output: Validate cuts the Q edges, the evaluators seed Q
// from the assignment (default X) and never evaluate the gate function,
// and CombinationalCore extracts the DFF-free core.
const (
	Inv GateType = iota
	Buf
	Nand
	Nor
	And
	Or
	Xor
	Xnor
	Aoi21
	Oai21
	Dff
)

var gateTypeNames = map[GateType]string{
	Inv: "inv", Buf: "buf", Nand: "nand", Nor: "nor", And: "and",
	Or: "or", Xor: "xor", Xnor: "xnor", Aoi21: "aoi21", Oai21: "oai21",
	Dff: "dff",
}

// String implements fmt.Stringer.
func (t GateType) String() string {
	if s, ok := gateTypeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("GateType(%d)", int(t))
}

// ParseGateType resolves a lower-case gate type name.
func ParseGateType(s string) (GateType, error) {
	for t, n := range gateTypeNames {
		if n == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("logic: unknown gate type %q", s)
}

// arityOK validates the input count for a gate type.
func arityOK(t GateType, n int) bool {
	switch t {
	case Inv, Buf, Dff:
		return n == 1
	case Xor, Xnor:
		return n == 2
	case Aoi21, Oai21:
		return n == 3
	default:
		return n >= 2
	}
}

// Gate is one gate instance. The output net shares the gate's name space
// with all other nets; a net is driven by at most one gate.
type Gate struct {
	Name    string
	Type    GateType
	Inputs  []string
	Output  string
	Level   int // topological level, assigned by Validate
	Ordinal int // insertion index
}

// Eval computes the gate function over three-valued inputs.
func (g *Gate) Eval(in []Value) Value {
	switch g.Type {
	case Inv:
		return in[0].Not()
	case Buf:
		return in[0]
	case Nand:
		return and3(in).Not()
	case And:
		return and3(in)
	case Nor:
		return or3(in).Not()
	case Or:
		return or3(in)
	case Xor:
		return xor3(in)
	case Xnor:
		return xor3(in).Not()
	case Aoi21:
		return or3([]Value{and3(in[:2]), in[2]}).Not()
	case Oai21:
		return and3([]Value{or3(in[:2]), in[2]}).Not()
	case Dff:
		// The stored state, not a function of D; the circuit evaluators
		// seed Q from the assignment instead of calling this.
		return X
	default:
		panic(fmt.Sprintf("logic: gate %s has unknown type", g.Name))
	}
}

// EvalBits computes the gate function over 64 parallel two-valued patterns.
func (g *Gate) EvalBits(in []uint64) uint64 {
	andAll := func(vs []uint64) uint64 {
		r := ^uint64(0)
		for _, v := range vs {
			r &= v
		}
		return r
	}
	orAll := func(vs []uint64) uint64 {
		r := uint64(0)
		for _, v := range vs {
			r |= v
		}
		return r
	}
	switch g.Type {
	case Inv:
		return ^in[0]
	case Buf:
		return in[0]
	case Nand:
		return ^andAll(in)
	case And:
		return andAll(in)
	case Nor:
		return ^orAll(in)
	case Or:
		return orAll(in)
	case Xor:
		return in[0] ^ in[1]
	case Xnor:
		return ^(in[0] ^ in[1])
	case Aoi21:
		return ^((in[0] & in[1]) | in[2])
	case Oai21:
		return ^((in[0] | in[1]) & in[2])
	case Dff:
		// Stored state; circuit evaluators seed Q from the assignment.
		return 0
	default:
		panic(fmt.Sprintf("logic: gate %s has unknown type", g.Name))
	}
}

// EvalBits3 computes the gate function over 64 parallel three-valued
// patterns in dual-rail encoding: bit k of val is set when lane k carries
// One, bit k of known when lane k carries Zero or One. Unknown lanes must
// carry a 0 val bit (the canonical form); the result is canonical again
// and agrees lane-by-lane with Eval over three-valued inputs.
func (g *Gate) EvalBits3(val, known []uint64) (uint64, uint64) {
	switch g.Type {
	case Inv:
		return ^val[0] & known[0], known[0]
	case Buf:
		return val[0], known[0]
	case Nand:
		v, k := and3Bits(val, known)
		return ^v & k, k
	case And:
		return and3Bits(val, known)
	case Nor:
		v, k := or3Bits(val, known)
		return ^v & k, k
	case Or:
		return or3Bits(val, known)
	case Xor:
		k := known[0] & known[1]
		return (val[0] ^ val[1]) & k, k
	case Xnor:
		k := known[0] & known[1]
		return ^(val[0] ^ val[1]) & k, k
	case Aoi21:
		av, ak := and3Bits(val[:2], known[:2])
		ov, ok := or3Bits([]uint64{av, val[2]}, []uint64{ak, known[2]})
		return ^ov & ok, ok
	case Oai21:
		ov, ok := or3Bits(val[:2], known[:2])
		av, ak := and3Bits([]uint64{ov, val[2]}, []uint64{ok, known[2]})
		return ^av & ak, ak
	case Dff:
		// Stored state (all lanes unknown); circuit evaluators seed Q
		// from the assignment.
		return 0, 0
	default:
		panic(fmt.Sprintf("logic: gate %s has unknown type", g.Name))
	}
}

// and3Bits is the n-ary three-valued AND over dual-rail words: the result
// is known where some input is a known Zero or where every input is known
// (the bitwise image of and3).
func and3Bits(val, known []uint64) (uint64, uint64) {
	allKnown := ^uint64(0)
	knownZero := uint64(0)
	v := ^uint64(0)
	for i := range val {
		allKnown &= known[i]
		knownZero |= known[i] &^ val[i]
		v &= val[i]
	}
	return v, allKnown | knownZero
}

// or3Bits is the n-ary three-valued OR over dual-rail words (the bitwise
// image of or3: known where some input is a known One or all are known).
func or3Bits(val, known []uint64) (uint64, uint64) {
	allKnown := ^uint64(0)
	v := uint64(0)
	for i := range val {
		allKnown &= known[i]
		v |= val[i]
	}
	return v, allKnown | v
}

// Circuit is a combinational gate-level netlist.
type Circuit struct {
	Name    string
	Inputs  []string
	Outputs []string
	Gates   []*Gate

	driver    map[string]*Gate   // net -> driving gate
	fanout    map[string][]*Gate // net -> consuming gates
	isInput   map[string]bool
	isOutput  map[string]bool
	ordered   []*Gate // topological order, built by Validate
	validated bool
	index     *Index // levelized evaluation index, built lazily by Index
}

// New creates an empty circuit.
func New(name string) *Circuit {
	return &Circuit{
		Name:     name,
		driver:   make(map[string]*Gate),
		fanout:   make(map[string][]*Gate),
		isInput:  make(map[string]bool),
		isOutput: make(map[string]bool),
	}
}

// AddInput declares a primary input net.
func (c *Circuit) AddInput(name string) error {
	if c.isInput[name] {
		return fmt.Errorf("logic: duplicate input %q", name)
	}
	if _, driven := c.driver[name]; driven {
		return fmt.Errorf("logic: input %q is already driven by a gate", name)
	}
	c.isInput[name] = true
	c.Inputs = append(c.Inputs, name)
	c.invalidate()
	return nil
}

// AddOutput declares a primary output net (it must be driven by Validate
// time). Declaring the same net twice is a no-op: a duplicate entry in
// Outputs would silently double the net in pattern/response rendering and
// in serve JSON, so repeat declarations are collapsed here. (Circuits
// assembled by writing Outputs directly can still carry duplicates; the
// netcheck lint reports those.)
func (c *Circuit) AddOutput(name string) {
	if c.isOutput == nil {
		c.isOutput = make(map[string]bool)
	}
	if c.isOutput[name] {
		return
	}
	c.isOutput[name] = true
	c.Outputs = append(c.Outputs, name)
	c.invalidate()
}

// invalidate drops the validation verdict and every structure derived
// from it (the topological order stays in place but is recomputed by the
// next Validate; the evaluation index is rebuilt on demand).
func (c *Circuit) invalidate() {
	c.validated = false
	c.index = nil
}

// AddGate adds a gate driving net output from the input nets.
func (c *Circuit) AddGate(name string, t GateType, output string, inputs ...string) (*Gate, error) {
	if !arityOK(t, len(inputs)) {
		return nil, fmt.Errorf("logic: gate %q type %v cannot take %d inputs", name, t, len(inputs))
	}
	if _, dup := c.driver[output]; dup {
		return nil, fmt.Errorf("logic: net %q driven by more than one gate", output)
	}
	if c.isInput[output] {
		return nil, fmt.Errorf("logic: gate %q drives primary input %q", name, output)
	}
	g := &Gate{Name: name, Type: t, Inputs: append([]string(nil), inputs...), Output: output, Ordinal: len(c.Gates)}
	c.Gates = append(c.Gates, g)
	c.driver[output] = g
	for _, in := range inputs {
		c.fanout[in] = append(c.fanout[in], g)
	}
	c.invalidate()
	return g, nil
}

// Driver returns the gate driving a net, or nil for primary inputs. Like
// Ordered and Depth it validates the circuit first (and panics when
// validation fails), so structural queries never observe a half-built or
// cyclic netlist.
func (c *Circuit) Driver(net string) *Gate {
	c.mustValidate()
	return c.driver[net]
}

// Fanout returns the gates consuming a net. Like Ordered and Depth it
// validates the circuit first (and panics when validation fails).
func (c *Circuit) Fanout(net string) []*Gate {
	c.mustValidate()
	return c.fanout[net]
}

// IsInput reports whether net is a primary input.
func (c *Circuit) IsInput(net string) bool { return c.isInput[net] }

// Validate checks structural sanity (every used net driven or an input, no
// combinational cycles, outputs resolvable) and computes the topological
// order and gate levels. It must be called before evaluation; evaluation
// helpers call it implicitly. On a circuit that validated and that no
// mutator (AddInput, AddOutput, AddGate) has changed since, it returns
// nil at once, keeping the order and levels.
func (c *Circuit) Validate() error {
	// Validate always drops the cached index, so a caller that edited a
	// gate in place gets a fresh one; it is rebuilt on demand.
	c.index = nil
	if c.validated {
		return nil
	}
	// Every gate input must be a PI or driven.
	for _, g := range c.Gates {
		for _, in := range g.Inputs {
			if !c.isInput[in] {
				if _, ok := c.driver[in]; !ok {
					return fmt.Errorf("logic: gate %q input net %q is undriven", g.Name, in)
				}
			}
		}
	}
	for _, out := range c.Outputs {
		if !c.isInput[out] {
			if _, ok := c.driver[out]; !ok {
				return fmt.Errorf("logic: output net %q is undriven", out)
			}
		}
	}
	// Kahn levelization. Q edges (nets driven by a DFF) are cut: the
	// stored state is a level-0 pseudo primary input for its consumers, so
	// only combinational driving edges contribute to indegree and level.
	indeg := make(map[*Gate]int, len(c.Gates))
	var ready []*Gate
	for _, g := range c.Gates {
		n := 0
		for _, in := range g.Inputs {
			if d, ok := c.driver[in]; ok && d.Type != Dff {
				n++
			}
		}
		indeg[g] = n
		if n == 0 {
			g.Level = 1
			ready = append(ready, g)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i].Ordinal < ready[j].Ordinal })
	ordered := make([]*Gate, 0, len(c.Gates))
	for len(ready) > 0 {
		g := ready[0]
		ready = ready[1:]
		ordered = append(ordered, g)
		if g.Type == Dff {
			// Q consumers do not wait on the flip-flop: their indegree
			// never counted this edge, so don't relax it either.
			continue
		}
		for _, succ := range c.fanout[g.Output] {
			indeg[succ]--
			if lvl := g.Level + 1; lvl > succ.Level {
				succ.Level = lvl
			}
			if indeg[succ] == 0 {
				ready = append(ready, succ)
			}
		}
	}
	if len(ordered) != len(c.Gates) {
		if cyc := c.FindCycle(); len(cyc) > 0 {
			names := make([]string, 0, len(cyc)+1)
			for _, g := range cyc {
				names = append(names, g.Name)
			}
			names = append(names, cyc[0].Name)
			return fmt.Errorf("logic: circuit %q has a combinational cycle: %s",
				c.Name, strings.Join(names, " -> "))
		}
		return fmt.Errorf("logic: circuit %q has a combinational cycle", c.Name)
	}
	c.ordered = ordered
	c.validated = true
	return nil
}

// FindCycle returns the gates of one combinational cycle in driving order
// (gate i drives an input of gate i+1, and the last drives the first), or
// nil when the netlist is acyclic. It indexes the raw Gates slice rather
// than the construction caches, so it works on unvalidated — even
// hand-assembled — circuits; both Validate and the netcheck structural
// lint report cycles through it.
func (c *Circuit) FindCycle() []*Gate {
	driver := make(map[string]*Gate, len(c.Gates))
	for _, g := range c.Gates {
		if _, dup := driver[g.Output]; !dup {
			driver[g.Output] = g
		}
	}
	const (
		white = 0 // unvisited
		grey  = 1 // on the current DFS path
		black = 2 // fully explored, not on any cycle reachable from here
	)
	color := make(map[*Gate]int, len(c.Gates))
	var stack []*Gate
	// visit walks the "driven-by" edges; a grey hit closes a cycle. The
	// returned slice is the cycle in driven-by order; callers reverse it.
	var visit func(g *Gate) []*Gate
	visit = func(g *Gate) []*Gate {
		color[g] = grey
		stack = append(stack, g)
		for _, in := range g.Inputs {
			d := driver[in]
			if d == nil || d.Type == Dff {
				// Q edges are sequential, not combinational: a feedback
				// loop through a flip-flop is legal state, not a cycle.
				continue
			}
			switch color[d] {
			case grey:
				// Slice the stack from d to g: that is the cycle.
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == d {
						return append([]*Gate(nil), stack[i:]...)
					}
				}
			case white:
				if cyc := visit(d); cyc != nil {
					return cyc
				}
			}
		}
		color[g] = black
		stack = stack[:len(stack)-1]
		return nil
	}
	for _, g := range c.Gates {
		if color[g] != white {
			continue
		}
		stack = stack[:0]
		if cyc := visit(g); cyc != nil {
			// The DFS followed driven-by edges, so reverse into driving order.
			for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
				cyc[i], cyc[j] = cyc[j], cyc[i]
			}
			return cyc
		}
	}
	return nil
}

// Ordered returns the gates in topological order (Validate must have
// succeeded).
func (c *Circuit) Ordered() []*Gate {
	c.mustValidate()
	return c.ordered
}

// Depth returns the maximum gate level (logic depth).
func (c *Circuit) Depth() int {
	c.mustValidate()
	d := 0
	for _, g := range c.Gates {
		if g.Level > d {
			d = g.Level
		}
	}
	return d
}

func (c *Circuit) mustValidate() {
	if c.validated {
		return
	}
	if err := c.Validate(); err != nil {
		panic(err)
	}
}

// Eval evaluates the circuit under a PI assignment, returning every net's
// value. Unassigned inputs evaluate to X. The optional override map forces
// net values regardless of their drivers — the hook used by fault
// simulation to impose a faulty value at a fault site. DFF output nets are
// pseudo primary inputs: their value comes from the assignment (default X),
// never from evaluating the flip-flop.
func (c *Circuit) Eval(assign map[string]Value, override map[string]Value) map[string]Value {
	c.mustValidate()
	vals := make(map[string]Value, len(c.Gates)+len(c.Inputs))
	for _, in := range c.Inputs {
		v, ok := assign[in]
		if !ok {
			v = X
		}
		if ov, ok := override[in]; ok {
			v = ov
		}
		vals[in] = v
	}
	for _, g := range c.Gates {
		if g.Type != Dff {
			continue
		}
		v, ok := assign[g.Output]
		if !ok {
			v = X
		}
		if ov, ok := override[g.Output]; ok {
			v = ov
		}
		vals[g.Output] = v
	}
	buf := make([]Value, 0, 4)
	for _, g := range c.ordered {
		if g.Type == Dff {
			continue
		}
		buf = buf[:0]
		for _, in := range g.Inputs {
			buf = append(buf, vals[in])
		}
		v := g.Eval(buf)
		if ov, ok := override[g.Output]; ok {
			v = ov
		}
		vals[g.Output] = v
	}
	return vals
}

// TruthTable exhaustively evaluates one output over all PI assignments
// (inputs in declaration order, index bit i = value of input i). It panics
// beyond 20 inputs.
func (c *Circuit) TruthTable(output string) []Value {
	if len(c.Inputs) > 20 {
		panic("logic: TruthTable limited to 20 inputs")
	}
	n := 1 << len(c.Inputs)
	out := make([]Value, n)
	assign := make(map[string]Value, len(c.Inputs))
	for i := 0; i < n; i++ {
		for b, in := range c.Inputs {
			assign[in] = FromBool(i&(1<<b) != 0)
		}
		out[i] = c.Eval(assign, nil)[output]
	}
	return out
}

// Nets returns all net names (inputs plus gate outputs), sorted.
func (c *Circuit) Nets() []string {
	seen := make(map[string]bool)
	var nets []string
	add := func(n string) {
		if !seen[n] {
			seen[n] = true
			nets = append(nets, n)
		}
	}
	for _, in := range c.Inputs {
		add(in)
	}
	for _, g := range c.Gates {
		add(g.Output)
	}
	sort.Strings(nets)
	return nets
}
