package atpg

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"gobd/internal/logic"
)

// WriteTests renders a two-pattern test set in the text exchange format:
//
//	# comment
//	circuit <name>
//	inputs <in> [<in> ...]
//	pair <v1bits> <v2bits>
//
// Bits follow the declared input order; X marks don't-care.
func WriteTests(w io.Writer, c *logic.Circuit, tests []TwoPattern) error {
	if _, err := fmt.Fprintf(w, "circuit %s\ninputs %s\n", c.Name, strings.Join(c.Inputs, " ")); err != nil {
		return err
	}
	for _, tp := range tests {
		if _, err := fmt.Fprintf(w, "pair %s %s\n", tp.V1.KeyFor(c), tp.V2.KeyFor(c)); err != nil {
			return err
		}
	}
	return nil
}

// TestFileError is a typed parse or validation failure from ReadTests.
// Line is 1-based in the input stream; Err, when non-nil, is the
// underlying vector parse error (reachable through errors.Unwrap).
type TestFileError struct {
	Line int
	Msg  string
	Err  error
}

func (e *TestFileError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("atpg: line %d: %v", e.Line, e.Err)
	}
	return fmt.Sprintf("atpg: line %d: %s", e.Line, e.Msg)
}

func (e *TestFileError) Unwrap() error { return e.Err }

// ReadTests parses the WriteTests format and validates it against the
// circuit (the input list must match the circuit's, in order).
func ReadTests(r io.Reader, c *logic.Circuit) ([]TwoPattern, error) {
	sc := bufio.NewScanner(r)
	var tests []TwoPattern
	sawInputs := false
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == "" {
			continue
		}
		f := strings.Fields(text)
		switch f[0] {
		case "circuit":
			// Informational; mismatches are tolerated deliberately so sets
			// can be replayed on renamed circuits.
		case "inputs":
			if len(f)-1 != len(c.Inputs) {
				return nil, &TestFileError{Line: line, Msg: fmt.Sprintf("%d inputs, circuit has %d", len(f)-1, len(c.Inputs))}
			}
			for i, in := range f[1:] {
				if in != c.Inputs[i] {
					return nil, &TestFileError{Line: line, Msg: fmt.Sprintf("input %d is %q, circuit has %q", i, in, c.Inputs[i])}
				}
			}
			sawInputs = true
		case "pair":
			if !sawInputs {
				return nil, &TestFileError{Line: line, Msg: "pair before inputs declaration"}
			}
			if len(f) != 3 {
				return nil, &TestFileError{Line: line, Msg: "pair wants two vectors"}
			}
			v1, err := ParsePattern(f[1], c)
			if err != nil {
				return nil, &TestFileError{Line: line, Err: err}
			}
			v2, err := ParsePattern(f[2], c)
			if err != nil {
				return nil, &TestFileError{Line: line, Err: err}
			}
			tests = append(tests, TwoPattern{V1: v1, V2: v2})
		default:
			return nil, &TestFileError{Line: line, Msg: fmt.Sprintf("unknown directive %q", f[0])}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tests, nil
}

// PatternError reports a bit string ParsePattern cannot read: the wrong
// width for the circuit, or a character other than 0, 1, X and x.
type PatternError string

// Error implements error.
func (e PatternError) Error() string { return string(e) }

// ParsePattern reads a bit string over the circuit's input order ('0',
// '1', and 'X' or 'x' for unknown) — the inverse of Pattern.KeyFor. The
// error is a PatternError.
func ParsePattern(s string, c *logic.Circuit) (Pattern, error) {
	if len(s) != len(c.Inputs) {
		return nil, PatternError(fmt.Sprintf("vector %q has %d bits, circuit has %d inputs", s, len(s), len(c.Inputs)))
	}
	p := make(Pattern, len(s))
	for i, ch := range s {
		switch ch {
		case '0':
			p[c.Inputs[i]] = logic.Zero
		case '1':
			p[c.Inputs[i]] = logic.One
		case 'X', 'x':
			p[c.Inputs[i]] = logic.X
		default:
			return nil, PatternError(fmt.Sprintf("bad bit %q in vector %q", string(ch), s))
		}
	}
	return p, nil
}
