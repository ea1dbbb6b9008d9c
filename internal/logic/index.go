package logic

// Index is a dense-ID, levelized view of a validated circuit, built once
// and cached on the Circuit (any mutation or re-Validate drops it). The
// map-of-string-keyed evaluators in logic.go are fine for the paper's
// ~25-gate examples, but event-driven fault grading over thousands of
// gates needs array indexing: every net gets a contiguous int ID, every
// gate its slice position, and the gates are bucketed by topological
// level so a simulator can sweep a changed-net frontier strictly
// level-ascending and touch each gate at most once.
type Index struct {
	// NetIDs maps a net name to its dense ID; NetNames is the inverse.
	// IDs are assigned primary inputs first (declaration order), then
	// gate outputs in Gates order.
	NetIDs   map[string]int
	NetNames []string

	// InputIDs and OutputIDs are the PI / PO nets in declaration order.
	OutputIDs []int32
	InputIDs  []int32

	// Gates is the gate list (same order as Circuit.Gates); GateIn,
	// GateOut and GateLevel are indexed by position in that slice.
	Gates     []*Gate
	GateIn    [][]int32
	GateOut   []int32
	GateLevel []int32

	// Fanouts maps a net ID to the positions of its consuming gates, in
	// ascending position order.
	Fanouts [][]int32

	// Levels buckets gate positions by topological level (Levels[0] is
	// empty: Validate assigns levels from 1). MaxLevel == len(Levels)-1.
	Levels   [][]int32
	MaxLevel int

	// IsPO marks net IDs that appear in Outputs.
	IsPO []bool
}

// Index returns the circuit's evaluation index, building and caching it
// on first use. Like Ordered it validates first and panics when
// validation fails.
func (c *Circuit) Index() *Index {
	c.mustValidate()
	if c.index != nil {
		return c.index
	}
	x := &Index{
		NetIDs: make(map[string]int, len(c.Inputs)+len(c.Gates)),
	}
	addNet := func(n string) int32 {
		if id, ok := x.NetIDs[n]; ok {
			return int32(id)
		}
		id := len(x.NetNames)
		x.NetIDs[n] = id
		x.NetNames = append(x.NetNames, n)
		return int32(id)
	}
	for _, in := range c.Inputs {
		x.InputIDs = append(x.InputIDs, addNet(in))
	}
	for _, g := range c.Gates {
		addNet(g.Output)
	}
	x.Gates = append([]*Gate(nil), c.Gates...)
	x.GateIn = make([][]int32, len(c.Gates))
	x.GateOut = make([]int32, len(c.Gates))
	x.GateLevel = make([]int32, len(c.Gates))
	x.Fanouts = make([][]int32, len(x.NetNames))
	for gi, g := range c.Gates {
		ins := make([]int32, len(g.Inputs))
		for k, in := range g.Inputs {
			id := addNet(in) // validated: always a PI or a gate output, so already present
			ins[k] = id
			x.Fanouts[id] = append(x.Fanouts[id], int32(gi))
		}
		x.GateIn[gi] = ins
		x.GateOut[gi] = int32(x.NetIDs[g.Output])
		x.GateLevel[gi] = int32(g.Level)
		if g.Level > x.MaxLevel {
			x.MaxLevel = g.Level
		}
	}
	x.Levels = make([][]int32, x.MaxLevel+1)
	for gi, g := range c.Gates {
		x.Levels[g.Level] = append(x.Levels[g.Level], int32(gi))
	}
	x.IsPO = make([]bool, len(x.NetNames))
	for _, po := range c.Outputs {
		id := addNet(po) // validated: a PI or driven, so already present
		x.OutputIDs = append(x.OutputIDs, id)
		x.IsPO[id] = true
	}
	return c.cacheIndex(x)
}

// cacheIndex stores the index; split out so Index stays readable.
func (c *Circuit) cacheIndex(x *Index) *Index {
	c.index = x
	return x
}

// NumNets returns the number of distinct nets (PIs plus gate outputs).
func (x *Index) NumNets() int { return len(x.NetNames) }

// GatePos returns the slice position of g in Gates, or -1 when g is not a
// gate of the indexed circuit (fault lists sometimes carry synthetic
// gates that were never added to a circuit; callers must fall back to a
// full evaluation for those). A gate's Ordinal is its position whenever
// the circuit's gate list is unchanged since it was added, so that is
// the one place looked at first.
func (x *Index) GatePos(g *Gate) int {
	if i := g.Ordinal; i >= 0 && i < len(x.Gates) && x.Gates[i] == g {
		return i
	}
	for i, h := range x.Gates {
		if h == g {
			return i
		}
	}
	return -1
}
