package bist

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

func TestLFSRMaximalPeriods(t *testing.T) {
	for w := 2; w <= 16; w++ {
		l, err := NewLFSR(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := 1<<uint(w) - 1
		if got := l.Period(); got != want {
			t.Fatalf("width %d period %d, want %d", w, got, want)
		}
	}
}

func TestLFSRRejectsUnsupportedWidth(t *testing.T) {
	if _, err := NewLFSR(1, 1); err == nil {
		t.Fatal("width 1 accepted")
	}
	if _, err := NewLFSR(20, 1); err == nil {
		t.Fatal("width 20 accepted")
	}
}

func TestLFSRZeroSeedCorrected(t *testing.T) {
	l, err := NewLFSR(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l.State() == 0 {
		t.Fatal("zero seed must be corrected (all-zero state locks up)")
	}
}

func TestMISRSensitivity(t *testing.T) {
	// Changing a single response word must change the signature.
	m1, _ := NewMISR(4, 0)
	m2, _ := NewMISR(4, 0)
	words := []uint64{3, 5, 9, 1, 7, 2}
	for _, w := range words {
		m1.Shift(w)
	}
	for i, w := range words {
		if i == 3 {
			w ^= 1
		}
		m2.Shift(w)
	}
	if m1.Signature() == m2.Signature() {
		t.Fatal("single-bit response change aliased")
	}
}

func TestSessionGoldenStable(t *testing.T) {
	c := cells.FullAdderSumLogic()
	s1, err := NewSession(c, 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSession(c, 5, 64)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := s1.GoldenSignature()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s2.GoldenSignature()
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("golden signature not deterministic")
	}
	if len(s1.Pairs()) != 63 {
		t.Fatalf("pairs %d", len(s1.Pairs()))
	}
}

// TestNewSessionRejectsNegativeLength: a negative stream length is an
// error, not a makeslice panic; lengths 0 and 1 build sessions with no
// launch pair.
func TestNewSessionRejectsNegativeLength(t *testing.T) {
	c := cells.FullAdderSumLogic()
	if s, err := NewSession(c, 1, -4); err == nil || s != nil {
		t.Fatalf("NewSession(-4) = %v, %v; want an error", s, err)
	}
	for _, n := range []int{0, 1} {
		s, err := NewSession(c, 1, n)
		if err != nil {
			t.Fatalf("NewSession(%d): %v", n, err)
		}
		if len(s.Pats) != n || len(s.Pairs()) != 0 {
			t.Fatalf("NewSession(%d): %d patterns, %d pairs", n, len(s.Pats), len(s.Pairs()))
		}
	}
}

// TestRunFaultsNilScheduler: a nil scheduler runs the GOMAXPROCS pool and
// returns the results a one-worker scheduler does.
func TestRunFaultsNilScheduler(t *testing.T) {
	c := cells.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(c)
	s, err := NewSession(c, 3, 64)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := s.GoldenSignature()
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.RunFaults(faults, golden, atpg.NewScheduler(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RunFaults(faults, golden, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nil scheduler results diverge from one worker's:\n got %+v\nwant %+v", got, want)
	}
}

func TestSessionDetectsKnownFault(t *testing.T) {
	c := cells.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(c)
	s, err := NewSession(c, 3, 256)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := s.GoldenSignature()
	if err != nil {
		t.Fatal(err)
	}
	detectedAny := false
	for _, f := range faults[:12] {
		res, err := s.RunFault(f, golden)
		if err != nil {
			t.Fatal(err)
		}
		if res.DetectedCycles > 0 {
			detectedAny = true
			if res.FirstCycle < 1 {
				t.Fatalf("%s: first cycle %d", f, res.FirstCycle)
			}
			if !res.Aliased && res.Signature == golden {
				t.Fatalf("%s: detected but signature equals golden and not marked aliased", f)
			}
		} else if res.Signature != golden {
			t.Fatalf("%s: no detection but signature differs", f)
		}
	}
	if !detectedAny {
		t.Fatal("256-cycle BIST detected nothing among 12 faults")
	}
}

// TestQuickSessionConsistentWithGrading: the per-cycle detection record
// matches grading the stream's pairs with the reference fault simulator.
func TestQuickSessionConsistentWithGrading(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 2 + rng.Intn(4), Gates: 2 + rng.Intn(10), Primitive: true})
		faults, _ := fault.OBDUniverse(c)
		if len(faults) == 0 {
			return true
		}
		s, err := NewSession(c, uint64(rng.Int63())|1, 32)
		if err != nil {
			return false
		}
		golden, err := s.GoldenSignature()
		if err != nil {
			return false
		}
		fl := faults[rng.Intn(len(faults))]
		res, err := s.RunFault(fl, golden)
		if err != nil {
			return false
		}
		count := 0
		first := -1
		for i, tp := range s.Pairs() {
			if atpg.DetectsOBD(c, fl, tp) {
				count++
				if first < 0 {
					first = i + 1
				}
			}
		}
		return count == res.DetectedCycles && first == res.FirstCycle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
