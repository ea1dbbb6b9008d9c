package atpg

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"gobd/internal/fault"
)

func TestTestSetRoundTrip(t *testing.T) {
	c := mustCircuit(t, xorNandSrc)
	faults, _ := fault.OBDUniverse(c)
	ts := must(NewScheduler(0).GenerateOBDTests(c, faults, nil))
	var buf bytes.Buffer
	if err := WriteTests(&buf, c, ts.Tests); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTests(&buf, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ts.Tests) {
		t.Fatalf("%d pairs back, want %d", len(back), len(ts.Tests))
	}
	for i := range back {
		if back[i].StringFor(c) != ts.Tests[i].StringFor(c) {
			t.Fatalf("pair %d changed: %s vs %s", i, back[i].StringFor(c), ts.Tests[i].StringFor(c))
		}
	}
	// The reloaded set grades identically.
	a := GradeOBD(c, faults, ts.Tests)
	b := GradeOBD(c, faults, back)
	if a.Detected != b.Detected {
		t.Fatalf("coverage changed after round trip: %v vs %v", a, b)
	}
}

func TestReadTestsErrors(t *testing.T) {
	c := mustCircuit(t, xorNandSrc)
	bad := []string{
		"pair 11 00",             // pair before inputs
		"inputs a b\npair 1 0",   // short vector
		"inputs a b\npair 12 00", // bad bit
		"inputs b a\npair 11 00", // wrong order
		"inputs a\npair 1 0",     // wrong count
		"inputs a b\nfrobnicate", // unknown directive
	}
	for _, src := range bad {
		if _, err := ReadTests(strings.NewReader(src), c); err == nil {
			t.Errorf("accepted bad test file %q", src)
		}
	}
	// The vector errors come from ParsePattern, typed under TestFileError.
	for _, src := range bad[1:3] {
		_, err := ReadTests(strings.NewReader(src), c)
		var pe PatternError
		if !errors.As(err, &pe) {
			t.Errorf("%q: error %v wraps no PatternError", src, err)
		}
	}
	// X bits round-trip.
	ok := "inputs a b\npair 1X 01\n"
	tests, err := ReadTests(strings.NewReader(ok), c)
	if err != nil {
		t.Fatal(err)
	}
	if tests[0].V1.KeyFor(c) != "1X" {
		t.Fatalf("X bit lost: %s", tests[0].V1.KeyFor(c))
	}
}
