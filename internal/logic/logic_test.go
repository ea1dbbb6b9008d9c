package logic

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustGate(t *testing.T, c *Circuit, name string, typ GateType, out string, ins ...string) *Gate {
	t.Helper()
	g, err := c.AddGate(name, typ, out, ins...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func buildXorNand(t *testing.T) *Circuit {
	// XOR via 4 NANDs.
	c := New("xor4nand")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddInput("b"); err != nil {
		t.Fatal(err)
	}
	c.AddOutput("y")
	mustGate(t, c, "n1", Nand, "n1", "a", "b")
	mustGate(t, c, "n2", Nand, "n2", "a", "n1")
	mustGate(t, c, "n3", Nand, "n3", "b", "n1")
	mustGate(t, c, "n4", Nand, "y", "n2", "n3")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAddOutputDedup: declaring the same output twice must not duplicate
// it — a doubled Outputs entry silently doubles the net in pattern and
// response rendering and in serve JSON.
func TestAddOutputDedup(t *testing.T) {
	c := New("m")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c, "g1", Inv, "y", "a")
	c.AddOutput("y")
	c.AddOutput("y")
	c.AddOutput("z2")
	mustGate(t, c, "g2", Inv, "z2", "y")
	c.AddOutput("z2")
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Outputs) != 2 || c.Outputs[0] != "y" || c.Outputs[1] != "z2" {
		t.Fatalf("Outputs = %v, want [y z2]", c.Outputs)
	}
	// A circuit assembled without New must not panic on AddOutput.
	var raw Circuit
	raw.AddOutput("q")
	raw.AddOutput("q")
	if len(raw.Outputs) != 1 {
		t.Fatalf("raw Outputs = %v", raw.Outputs)
	}
}

func TestXorFromNands(t *testing.T) {
	c := buildXorNand(t)
	tt := c.TruthTable("y")
	want := []Value{Zero, One, One, Zero}
	for i := range want {
		if tt[i] != want[i] {
			t.Fatalf("tt[%d] = %v, want %v", i, tt[i], want[i])
		}
	}
	if d := c.Depth(); d != 3 {
		t.Fatalf("depth = %d, want 3", d)
	}
}

func TestGateEvalAllTypes(t *testing.T) {
	cases := []struct {
		t    GateType
		in   []Value
		want Value
	}{
		{Inv, []Value{One}, Zero},
		{Inv, []Value{X}, X},
		{Buf, []Value{Zero}, Zero},
		{Nand, []Value{One, One}, Zero},
		{Nand, []Value{Zero, X}, One}, // controlling value beats X
		{Nand, []Value{One, X}, X},
		{And, []Value{One, One, One}, One},
		{And, []Value{One, Zero, X}, Zero},
		{Nor, []Value{Zero, Zero}, One},
		{Nor, []Value{One, X}, Zero},
		{Nor, []Value{Zero, X}, X},
		{Or, []Value{Zero, One}, One},
		{Xor, []Value{One, Zero}, One},
		{Xor, []Value{One, X}, X},
		{Xnor, []Value{One, One}, One},
		{Aoi21, []Value{One, One, Zero}, Zero},
		{Aoi21, []Value{Zero, One, Zero}, One},
		{Aoi21, []Value{Zero, Zero, One}, Zero},
		{Oai21, []Value{Zero, Zero, One}, One},
		{Oai21, []Value{One, Zero, One}, Zero},
		{Oai21, []Value{One, One, Zero}, One},
	}
	for _, cse := range cases {
		g := &Gate{Name: "g", Type: cse.t}
		if got := g.Eval(cse.in); got != cse.want {
			t.Errorf("%v%v = %v, want %v", cse.t, cse.in, got, cse.want)
		}
	}
}

func TestValueHelpers(t *testing.T) {
	if Zero.Not() != One || One.Not() != Zero || X.Not() != X {
		t.Fatal("Not broken")
	}
	if !One.IsKnown() || !Zero.IsKnown() || X.IsKnown() {
		t.Fatal("IsKnown broken")
	}
	if FromBool(true) != One || FromBool(false) != Zero {
		t.Fatal("FromBool broken")
	}
	if One.String() != "1" || Zero.String() != "0" || X.String() != "X" {
		t.Fatal("String broken")
	}
}

func TestValidateErrors(t *testing.T) {
	c := New("bad")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c, "g1", Inv, "y", "missing")
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "undriven") {
		t.Fatalf("undriven input not caught: %v", err)
	}

	c2 := New("bad2")
	if err := c2.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	c2.AddOutput("nowhere")
	if err := c2.Validate(); err == nil {
		t.Fatal("undriven output not caught")
	}

	// Cycle: g1 -> g2 -> g1.
	c3 := New("cycle")
	if err := c3.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c3, "g1", Nand, "x", "a", "y")
	mustGate(t, c3, "g2", Inv, "y", "x")
	if err := c3.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not caught: %v", err)
	} else {
		// The error must name the gates on the cycle, not just report one.
		for _, g := range []string{"g1", "g2"} {
			if !strings.Contains(err.Error(), g) {
				t.Fatalf("cycle error %q does not name gate %s", err, g)
			}
		}
	}
}

func TestFindCycle(t *testing.T) {
	c := New("cyc")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c, "front", Inv, "f", "a")
	mustGate(t, c, "g1", Nand, "x", "f", "z")
	mustGate(t, c, "g2", Inv, "y", "x")
	mustGate(t, c, "g3", Inv, "z", "y")
	cyc := c.FindCycle()
	if len(cyc) != 3 {
		t.Fatalf("FindCycle returned %d gates, want 3", len(cyc))
	}
	// Driving order: each gate drives an input of the next, wrapping.
	for i, g := range cyc {
		next := cyc[(i+1)%len(cyc)]
		found := false
		for _, in := range next.Inputs {
			if in == g.Output {
				found = true
			}
		}
		if !found {
			t.Fatalf("cycle order broken: %s does not drive %s", g.Name, next.Name)
		}
	}

	if got := C17().FindCycle(); got != nil {
		t.Fatalf("FindCycle on acyclic c17 returned %v", got)
	}
}

// Driver and Fanout must behave like Ordered/Depth: validate implicitly
// and panic on structurally broken circuits instead of silently answering
// from stale caches.
func TestDriverFanoutValidate(t *testing.T) {
	c := New("broken")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c, "g1", Inv, "y", "nosuch")
	for name, probe := range map[string]func(){
		"Driver": func() { c.Driver("y") },
		"Fanout": func() { c.Fanout("a") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on an invalid circuit did not panic", name)
				}
			}()
			probe()
		}()
	}

	// On a valid but not-yet-validated circuit they validate implicitly.
	ok := New("ok")
	if err := ok.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, ok, "g1", Inv, "y", "a")
	ok.AddOutput("y")
	if g := ok.Driver("y"); g == nil || g.Name != "g1" {
		t.Fatalf("Driver(y) = %v, want g1", g)
	}
	if fo := ok.Fanout("a"); len(fo) != 1 || fo[0].Name != "g1" {
		t.Fatalf("Fanout(a) = %v, want [g1]", fo)
	}
}

func TestConstructionErrors(t *testing.T) {
	c := New("c")
	if err := c.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddInput("a"); err == nil {
		t.Fatal("duplicate input accepted")
	}
	if _, err := c.AddGate("g", Inv, "y", "a", "a"); err == nil {
		t.Fatal("bad arity accepted")
	}
	if _, err := c.AddGate("g", Xor, "y", "a"); err == nil {
		t.Fatal("bad xor arity accepted")
	}
	if _, err := c.AddGate("g", Inv, "a", "a"); err == nil {
		t.Fatal("driving a primary input accepted")
	}
	if _, err := c.AddGate("g1", Inv, "y", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("g2", Inv, "y", "a"); err == nil {
		t.Fatal("double-driven net accepted")
	}
}

func TestEvalOverride(t *testing.T) {
	c := buildXorNand(t)
	assign := map[string]Value{"a": One, "b": One}
	// Force internal net n1 (normally 0 for 11) to 1: y = nand(nand(a,1)=0.. )
	vals := c.Eval(assign, map[string]Value{"n1": One})
	// With n1 forced 1: n2 = nand(1,1)=0, n3 = nand(1,1)=0, y = nand(0,0)=1.
	if vals["y"] != One {
		t.Fatalf("override eval y = %v, want 1", vals["y"])
	}
	// Unforced: y = xor(1,1) = 0.
	if v := c.Eval(assign, nil)["y"]; v != Zero {
		t.Fatalf("plain eval y = %v, want 0", v)
	}
}

func TestEvalUnassignedInputIsX(t *testing.T) {
	c := buildXorNand(t)
	vals := c.Eval(map[string]Value{"a": One}, nil)
	if vals["y"] != X {
		t.Fatalf("y = %v, want X with unassigned b", vals["y"])
	}
	// A controlling value still decides: NAND(0, X) = 1.
	c2 := New("c2")
	if err := c2.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if err := c2.AddInput("b"); err != nil {
		t.Fatal(err)
	}
	mustGate(t, c2, "g", Nand, "y", "a", "b")
	c2.AddOutput("y")
	if err := c2.Validate(); err != nil {
		t.Fatal(err)
	}
	if v := c2.Eval(map[string]Value{"a": Zero}, nil)["y"]; v != One {
		t.Fatalf("NAND(0,X) = %v, want 1", v)
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	src := `# the 4-NAND XOR
circuit xor4
input a b
output y
nand n1 n1 a b
nand n2 n2 a n1
nand n3 n3 b n1
nand n4 y n2 n3
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "xor4" || len(c.Gates) != 4 || c.Depth() != 3 {
		t.Fatalf("parsed circuit wrong: name=%q gates=%d depth=%d", c.Name, len(c.Gates), c.Depth())
	}
	c2, err := ParseString(Format(c))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	tt1, tt2 := c.TruthTable("y"), c2.TruthTable("y")
	for i := range tt1 {
		if tt1[i] != tt2[i] {
			t.Fatalf("round trip changed function at %d", i)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate g y a",      // unknown type
		"inv g",                 // too few fields
		"circuit a b",           // circuit arity
		"input a\ninv g1 a a",   // drives an input
		"input a\ninv g1 y zzz", // undriven used net
	}
	for _, src := range bad {
		if _, err := ParseString(src); err == nil {
			t.Errorf("accepted bad netlist %q", src)
		}
	}
}

// TestQuickBitsMatchesScalar: the 64-way gate evaluators agree lane by
// lane with the scalar Gate.Eval for every gate type and every legal
// arity from 1 to 4 — EvalBits on two-valued lanes, EvalBits3 on
// three-valued lanes with X included (and its outputs stay canonical:
// unknown lanes carry a 0 value bit).
func TestQuickBitsMatchesScalar(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for typ := Inv; typ <= Dff; typ++ {
			for n := 1; n <= 4; n++ {
				if !arityOK(typ, n) {
					continue
				}
				g := &Gate{Name: "g", Type: typ, Inputs: make([]string, n), Output: "y"}
				lanes := make([][]Value, 64)
				val, known, bits := make([]uint64, n), make([]uint64, n), make([]uint64, n)
				for k := range lanes {
					lanes[k] = make([]Value, n)
					for i := range lanes[k] {
						v := Value(rng.Intn(3))
						lanes[k][i] = v
						if v.IsKnown() {
							known[i] |= 1 << uint(k)
						}
						if v == One {
							val[i] |= 1 << uint(k)
						}
						if rng.Intn(2) == 1 {
							bits[i] |= 1 << uint(k)
						}
					}
				}
				v3, k3 := g.EvalBits3(val, known)
				v2 := g.EvalBits(bits)
				if v3&^k3 != 0 {
					return false
				}
				for k, in := range lanes {
					got := X
					if k3&(1<<uint(k)) != 0 {
						got = FromBool(v3&(1<<uint(k)) != 0)
					}
					if got != g.Eval(in) {
						return false
					}
					if typ == Dff {
						continue // stored state: EvalBits has no two-valued image of X
					}
					two := make([]Value, n)
					for i := range two {
						two[i] = FromBool(bits[i]&(1<<uint(k)) != 0)
					}
					if FromBool(v2&(1<<uint(k)) != 0) != g.Eval(two) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEvalBitsOverride: forcing a net's lanes while composing the
// 64-way gate evaluators in level order — how the fault engine imposes a
// faulty value at a site — behaves like the scalar override of
// Circuit.Eval, lane by lane: two-valued lanes through Gate.EvalBits,
// three-valued lanes (X inputs and X forced values) through Gate.EvalBits3.
func TestQuickEvalBitsOverride(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := RandomCircuit(rng, RandomOptions{Inputs: 2 + rng.Intn(4), Gates: 2 + rng.Intn(20), Primitive: true})
		site := c.Gates[rng.Intn(len(c.Gates))].Output
		// Two-valued lanes in bits; three-valued lanes in dual rail.
		bits := make(map[string]uint64)
		val, known := make(map[string]uint64), make(map[string]uint64)
		for _, in := range c.Inputs {
			bits[in] = rng.Uint64()
			known[in] = rng.Uint64() | rng.Uint64() // mostly known
			val[in] = rng.Uint64() & known[in]
		}
		forced := rng.Uint64()
		forcedKnown := rng.Uint64() | rng.Uint64()
		forcedVal := rng.Uint64() & forcedKnown
		var in2, inV, inK []uint64
		for _, g := range c.Ordered() {
			if g.Type == Dff {
				continue // Q is a pseudo input; unassigned here, so X/0
			}
			in2, inV, inK = in2[:0], inV[:0], inK[:0]
			for _, n := range g.Inputs {
				in2, inV, inK = append(in2, bits[n]), append(inV, val[n]), append(inK, known[n])
			}
			bits[g.Output] = g.EvalBits(in2)
			val[g.Output], known[g.Output] = g.EvalBits3(inV, inK)
			if g.Output == site {
				bits[site], val[site], known[site] = forced, forcedVal, forcedKnown
			}
		}
		lane := func(v, k uint64, i int) Value {
			if k&(1<<uint(i)) == 0 {
				return X
			}
			return FromBool(v&(1<<uint(i)) != 0)
		}
		for i := 0; i < 64; i++ {
			assign2, assign3 := make(map[string]Value), make(map[string]Value)
			for _, in := range c.Inputs {
				assign2[in] = FromBool(bits[in]&(1<<uint(i)) != 0)
				assign3[in] = lane(val[in], known[in], i)
			}
			want2 := c.Eval(assign2, map[string]Value{site: FromBool(forced&(1<<uint(i)) != 0)})
			want3 := c.Eval(assign3, map[string]Value{site: lane(forcedVal, forcedKnown, i)})
			for _, out := range c.Outputs {
				if FromBool(bits[out]&(1<<uint(i)) != 0) != want2[out] {
					return false
				}
				if lane(val[out], known[out], i) != want3[out] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRandomCircuitsValid: generated circuits always validate, have
// outputs, and levels respect topology.
func TestQuickRandomCircuitsValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := RandomCircuit(rng, RandomOptions{Inputs: 1 + rng.Intn(5), Gates: 1 + rng.Intn(30), Primitive: seed%2 == 0})
		if err := c.Validate(); err != nil {
			return false
		}
		if len(c.Outputs) == 0 {
			return false
		}
		for _, g := range c.Gates {
			for _, in := range g.Inputs {
				if d := c.Driver(in); d != nil && d.Level >= g.Level {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNets(t *testing.T) {
	c := buildXorNand(t)
	nets := c.Nets()
	want := map[string]bool{"a": true, "b": true, "n1": true, "n2": true, "n3": true, "y": true}
	if len(nets) != len(want) {
		t.Fatalf("nets = %v", nets)
	}
	for _, n := range nets {
		if !want[n] {
			t.Fatalf("unexpected net %q", n)
		}
	}
}

func TestGateTypeStringParse(t *testing.T) {
	for _, typ := range []GateType{Inv, Buf, Nand, Nor, And, Or, Xor, Xnor, Aoi21, Oai21} {
		back, err := ParseGateType(typ.String())
		if err != nil || back != typ {
			t.Fatalf("round trip %v failed: %v %v", typ, back, err)
		}
	}
	if _, err := ParseGateType("nope"); err == nil {
		t.Fatal("unknown type accepted")
	}
}
