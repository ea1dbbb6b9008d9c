package logic

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

const benchC17 = `# c17 in ISCAS-85 form
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
`

func TestParseBenchC17(t *testing.T) {
	c, err := ParseBenchString(benchC17)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 5 || len(c.Outputs) != 2 || len(c.Gates) != 6 {
		t.Fatalf("structure: %d in %d out %d gates", len(c.Inputs), len(c.Outputs), len(c.Gates))
	}
	// Same function as the built-in C17 (inputs correspond in order).
	ref := C17()
	for i, po := range c.Outputs {
		a, b := c.TruthTable(po), ref.TruthTable(ref.Outputs[i])
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("output %s differs from built-in c17 at row %d", po, k)
			}
		}
	}
}

func TestParseBenchSingleInputCollapse(t *testing.T) {
	c, err := ParseBenchString("INPUT(a)\nOUTPUT(y)\nn = NAND(a)\ny = AND(n)\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Gates[0].Type != Inv || c.Gates[1].Type != Buf {
		t.Fatalf("degenerate forms: got %v, %v", c.Gates[0].Type, c.Gates[1].Type)
	}
}

func TestParseBenchErrors(t *testing.T) {
	bad := map[string]string{
		"dff2":      "INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a, b)\n",
		"unknown":   "INPUT(a)\nOUTPUT(y)\ny = MAJ(a, a, a)\n",
		"malformed": "INPUT(a)\nOUTPUT(y)\ny = NAND a, a\n",
		"trailing":  "INPUT(a)\nOUTPUT(y)\ny = NOT(a) junk\n",
		"noargs":    "INPUT(a)\nOUTPUT(y)\ny = NAND()\n",
		"xor3":      "INPUT(a)\nOUTPUT(y)\ny = XOR(a, a, a)\n",
		"noout":     "INPUT(a)\nOUTPUT(y)\n = NOT(a)\n",
		"directive": "INPUT(a)\nWIBBLE(a)\n",
		"twoinput":  "INPUT(a, b)\nOUTPUT(y)\ny = NAND(a, b)\n",
		"undriven":  "INPUT(a)\nOUTPUT(y)\ny = NAND(a, ghost)\n",
	}
	for name, src := range bad {
		if _, err := ParseBenchString(src); err == nil {
			t.Errorf("%s: accepted bad bench:\n%s", name, src)
		}
	}
}

func TestFormatBenchRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := RandomCircuit(rng, RandomOptions{Inputs: 1 + rng.Intn(5), Gates: 1 + rng.Intn(25), Primitive: true})
		out, err := FormatBench(c)
		if err != nil {
			return false
		}
		back, err := ParseBenchString(out)
		if err != nil {
			return false
		}
		if len(back.Gates) != len(c.Gates) || len(back.Inputs) != len(c.Inputs) ||
			len(back.Outputs) != len(c.Outputs) {
			return false
		}
		if len(c.Inputs) <= 10 {
			for _, po := range c.Outputs {
				a, b := c.TruthTable(po), back.TruthTable(po)
				for i := range a {
					if a[i] != b[i] {
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

func TestFormatBenchRejectsAOI(t *testing.T) {
	c := New("m")
	for _, in := range []string{"a", "b", "d"} {
		if err := c.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	mustGate(t, c, "y", Aoi21, "y", "a", "b", "d")
	c.AddOutput("y")
	if _, err := FormatBench(c); err == nil {
		t.Fatal("AOI21 export should fail (no .bench primitive)")
	}
}

// TestParseFileDispatch: each extension reaches its parser, and a
// circuit the file leaves unnamed is named after the file, while a
// named one keeps its own name.
func TestParseFileDispatch(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]struct{ src, name string }{
		"c17.bench":    {benchC17, "c17"},
		"c.v":          {"module m (a, y); input a; output y; not g1 (y, a); endmodule\n", "m"},
		"c.net":        {"circuit m\ninput a\noutput y\ninv g1 y a\n", "m"},
		"unnamed.n.nl": {"input a\noutput y\ninv g1 y a\n", "unnamed.n"},
	}
	for file, tc := range cases {
		path := filepath.Join(dir, file)
		if err := os.WriteFile(path, []byte(tc.src), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := ParseFile(path)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if len(c.Gates) == 0 {
			t.Fatalf("%s: no gates parsed", file)
		}
		if c.Name != tc.name {
			t.Fatalf("%s: circuit named %q, want %q", file, c.Name, tc.name)
		}
	}
	if c, err := ParseBenchString(benchC17); err != nil {
		t.Fatal(err)
	} else if c.Name != "" {
		t.Fatalf("ParseBenchString named the circuit %q, want it unnamed", c.Name)
	}
	if _, err := ParseFile(filepath.Join(dir, "missing.bench")); err == nil {
		t.Fatal("missing file should error")
	}
}

// TestParseFileTypedErrors pins the dispatch's failure contract: every
// parse-stage failure is a *ParseError naming the dispatched format and
// wrapping the parser's error, an empty netlist wraps ErrEmptyNetlist,
// and an I/O failure (no format chosen yet) stays unwrapped.
func TestParseFileTypedErrors(t *testing.T) {
	dir := t.TempDir()
	nativeC17 := "circuit m\ninput a\noutput y\ninv g1 y a\n"
	cases := []struct {
		name    string
		file    string
		content string
		format  string
		wantIs  error // optional sentinel the chain must contain
	}{
		{"unknown extension with bench content", "c.xyz", benchC17, "native", nil},
		{"bench extension with native content", "c.bench", nativeC17, "bench", nil},
		{"verilog extension with bench content", "c.v", benchC17, "verilog", nil},
		{"empty bench file", "empty.bench", "", "bench", ErrEmptyNetlist},
		{"empty native file", "empty.net", "", "native", ErrEmptyNetlist},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.file)
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ParseFile(path)
			if err == nil {
				t.Fatal("want an error")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %v (%T) is not a *ParseError", err, err)
			}
			if pe.Format != tc.format {
				t.Fatalf("dispatched format %q, want %q", pe.Format, tc.format)
			}
			if pe.Path != path {
				t.Fatalf("path %q, want %q", pe.Path, path)
			}
			if pe.Err == nil {
				t.Fatal("ParseError wraps no cause")
			}
			if tc.wantIs != nil && !errors.Is(err, tc.wantIs) {
				t.Fatalf("error %v does not wrap %v", err, tc.wantIs)
			}
		})
	}
	// I/O failures predate format dispatch and must stay unwrapped.
	var pe *ParseError
	if _, err := ParseFile(filepath.Join(dir, "missing.bench")); errors.As(err, &pe) {
		t.Fatalf("open failure %v should not be a *ParseError", err)
	}
}

// TestParseLongLine: machine-generated netlists put thousands of names on
// one line; the scanner must accept lines far past bufio's 64 KiB default.
func TestParseLongLine(t *testing.T) {
	var b strings.Builder
	b.WriteString("circuit wide\ninput")
	n := 12000 // ~84 KiB of input names on one line
	for i := 0; i < n; i++ {
		b.WriteString(" in")
		b.WriteString(strconv.Itoa(i))
	}
	b.WriteString("\noutput y\nnand g1 y in0 in1\n")
	if b.Len() < 70<<10 {
		t.Fatalf("test line too short to exercise the buffer: %d bytes", b.Len())
	}
	c, err := ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != n {
		t.Fatalf("inputs: %d", len(c.Inputs))
	}
}
