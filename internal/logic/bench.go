package logic

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// This file reads and writes the ISCAS-85 ".bench" netlist format — the
// interchange format the classical benchmark circuits (c432, c880,
// c6288, ...) are distributed in, and the ingestion path that takes the
// repo past the paper's ~25-gate worked examples:
//
//	# c17
//	INPUT(1)
//	INPUT(2)
//	OUTPUT(22)
//	22 = NAND(10, 16)
//	10 = NAND(1, 3)
//
// Nets and gates share names: a gate is named by the net it drives.
// Keywords are matched case-insensitively. Single-input DFF lines (the
// ISCAS-89 sequential element, e.g. `G5 = DFF(G10)`) parse into the Dff
// gate type; sequential constructs beyond that (multi-input DFF) fail with
// a *ParseError naming the construct and line.

var benchTypes = map[string]GateType{
	"AND": And, "NAND": Nand, "OR": Or, "NOR": Nor,
	"NOT": Inv, "INV": Inv, "BUFF": Buf, "BUF": Buf,
	"XOR": Xor, "XNOR": Xnor, "DFF": Dff,
}

var benchNames = map[GateType]string{
	Inv: "NOT", Buf: "BUFF", Nand: "NAND", Nor: "NOR",
	And: "AND", Or: "OR", Xor: "XOR", Xnor: "XNOR", Dff: "DFF",
}

// ParseBench reads an ISCAS-85 .bench netlist into a validated Circuit.
// Single-input AND/OR collapse to BUFF and single-input NAND/NOR to NOT
// (degenerate forms some netlist generators emit).
func ParseBench(r io.Reader) (*Circuit, error) {
	c := New("")
	sc := netlistScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if eq := strings.IndexByte(line, '='); eq >= 0 {
			name := strings.TrimSpace(line[:eq])
			if name == "" {
				return nil, fmt.Errorf("bench: line %d: gate without an output net", lineNo)
			}
			typ, args, err := benchCall(line[eq+1:])
			if err != nil {
				return nil, fmt.Errorf("bench: line %d: %w", lineNo, err)
			}
			if err := benchAddGate(c, name, typ, args); err != nil {
				var pe *ParseError
				if errors.As(err, &pe) {
					pe.Line = lineNo
					return nil, pe
				}
				return nil, fmt.Errorf("bench: line %d: %w", lineNo, err)
			}
			continue
		}
		typ, args, err := benchCall(line)
		if err != nil {
			return nil, fmt.Errorf("bench: line %d: %w", lineNo, err)
		}
		switch strings.ToUpper(typ) {
		case "INPUT":
			if len(args) != 1 {
				return nil, fmt.Errorf("bench: line %d: INPUT wants one net", lineNo)
			}
			if err := c.AddInput(args[0]); err != nil {
				return nil, fmt.Errorf("bench: line %d: %w", lineNo, err)
			}
		case "OUTPUT":
			if len(args) != 1 {
				return nil, fmt.Errorf("bench: line %d: OUTPUT wants one net", lineNo)
			}
			c.AddOutput(args[0])
		default:
			return nil, fmt.Errorf("bench: line %d: unexpected directive %q", lineNo, typ)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// benchCall parses `TYPE(a, b, ...)`, returning the keyword and the
// comma-separated argument names.
func benchCall(s string) (string, []string, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	closeP := strings.LastIndexByte(s, ')')
	if open < 0 || closeP < open {
		return "", nil, fmt.Errorf("malformed call %q", trunc(s))
	}
	if tail := strings.TrimSpace(s[closeP+1:]); tail != "" {
		return "", nil, fmt.Errorf("trailing text %q after call", trunc(tail))
	}
	typ := strings.TrimSpace(s[:open])
	if typ == "" {
		return "", nil, fmt.Errorf("malformed call %q", trunc(s))
	}
	args := splitNames(s[open+1 : closeP])
	return typ, args, nil
}

// benchAddGate maps one `out = TYPE(args)` line onto AddGate.
func benchAddGate(c *Circuit, name, typ string, args []string) error {
	upper := strings.ToUpper(typ)
	t, ok := benchTypes[upper]
	if !ok {
		return fmt.Errorf("unknown gate type %q", typ)
	}
	if len(args) == 0 {
		return fmt.Errorf("gate %q has no inputs", name)
	}
	if t == Dff {
		if len(args) != 1 {
			// Set/reset/enable-style flip-flops are not modeled; report
			// the construct so the failure is actionable. ParseBench
			// fills Line, ParseFile fills Path.
			return &ParseError{
				Format:    "bench",
				Construct: fmt.Sprintf("%d-input DFF %q", len(args), name),
				Err:       ErrUnsupportedSeq,
			}
		}
	} else if len(args) == 1 {
		switch t {
		case And, Or, Buf:
			t = Buf
		case Nand, Nor, Inv:
			t = Inv
		default:
			return fmt.Errorf("gate %q: %s wants two inputs", name, upper)
		}
	}
	_, err := c.AddGate(name, t, name, args...)
	return err
}

// ParseBenchString is ParseBench over a string.
func ParseBenchString(s string) (*Circuit, error) { return ParseBench(strings.NewReader(s)) }

// FormatBench renders the circuit in .bench format. Gate types without a
// .bench primitive (AOI21/OAI21) are rejected, as are gates whose name
// differs from their output net (the format has no way to say that).
func FormatBench(c *Circuit) (string, error) {
	if err := c.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	if c.Name != "" {
		fmt.Fprintf(&b, "# %s\n", c.Name)
	}
	for _, in := range c.Inputs {
		fmt.Fprintf(&b, "INPUT(%s)\n", in)
	}
	for _, out := range c.Outputs {
		fmt.Fprintf(&b, "OUTPUT(%s)\n", out)
	}
	for _, g := range c.Gates {
		prim, ok := benchNames[g.Type]
		if !ok {
			return "", fmt.Errorf("bench: gate %q type %v has no .bench primitive", g.Name, g.Type)
		}
		if g.Name != g.Output {
			return "", fmt.Errorf("bench: gate %q drives net %q; .bench requires gate name == output net", g.Name, g.Output)
		}
		fmt.Fprintf(&b, "%s = %s(%s)\n", g.Output, prim, strings.Join(g.Inputs, ", "))
	}
	return b.String(), nil
}

// ErrEmptyNetlist is the sentinel under a ParseFile failure on a file
// that parses to a circuit with no inputs, gates or outputs — almost
// always the wrong file or the wrong format for its extension.
var ErrEmptyNetlist = errors.New("logic: empty netlist")

// ErrUnsupportedSeq is the sentinel under parse failures on sequential
// constructs the netlist formats cannot represent in this model — e.g. a
// multi-input (set/reset/enable) DFF. Plain single-input DFFs parse fine.
var ErrUnsupportedSeq = errors.New("logic: unsupported sequential construct")

// ParseError is the typed parse failure: it names the file (when parsing
// came through ParseFile), the format, and — when known — the 1-based line
// and the offending construct, and wraps the underlying error so errors.Is
// and errors.As see through the dispatch. I/O failures (os.Open) are
// returned as-is, not wrapped: no format was chosen yet.
type ParseError struct {
	Path      string
	Format    string // "bench", "verilog" or "native"
	Line      int    // 1-based source line, 0 when unknown
	Construct string // offending construct (e.g. `2-input DFF "G5"`), "" when unknown
	Err       error
}

func (e *ParseError) Error() string {
	loc := e.Path
	if loc == "" {
		loc = "netlist"
	}
	if e.Line > 0 {
		loc = fmt.Sprintf("%s:%d", loc, e.Line)
	}
	if e.Construct != "" {
		return fmt.Sprintf("logic: parse %s as %s: %s: %v", loc, e.Format, e.Construct, e.Err)
	}
	return fmt.Sprintf("logic: parse %s as %s: %v", loc, e.Format, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

// ParseFile loads a netlist from disk, dispatching on the extension:
// ".bench" → ParseBench, ".v" → ParseVerilog, anything else → the native
// Parse text format. A circuit the file leaves unnamed (every .bench
// file) is named after the file's base name without its extension. Every
// parse failure comes back as a *ParseError, and a file that yields a
// completely empty circuit fails with one wrapping ErrEmptyNetlist.
func ParseFile(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var (
		c      *Circuit
		format string
	)
	switch strings.ToLower(filepath.Ext(path)) {
	case ".bench":
		format = "bench"
		c, err = ParseBench(f)
	case ".v":
		format = "verilog"
		c, err = ParseVerilog(f)
	default:
		format = "native"
		c, err = Parse(f)
	}
	if err != nil {
		var pe *ParseError
		if errors.As(err, &pe) && pe.Path == "" {
			// The format parser already built a typed error (line and
			// construct attribution); just attach the path.
			pe.Path = path
			return nil, pe
		}
		return nil, &ParseError{Path: path, Format: format, Err: err}
	}
	if len(c.Inputs) == 0 && len(c.Gates) == 0 && len(c.Outputs) == 0 {
		return nil, &ParseError{Path: path, Format: format, Err: ErrEmptyNetlist}
	}
	if c.Name == "" {
		c.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return c, nil
}
