package atpg

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
)

// TestForEachCtxPanicConfined: a panicking work item becomes a typed
// per-item error; every other item still runs and the pool survives.
func TestForEachCtxPanicConfined(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		s := NewScheduler(w)
		var ran atomic.Int64
		rep := s.ForEachCtx(context.Background(), 64, func(i int) error {
			ran.Add(1)
			if i == 17 {
				panic("poisoned item")
			}
			if i == 40 {
				return errors.New("plain failure")
			}
			return nil
		})
		if got := ran.Load(); got != 64 {
			t.Fatalf("workers=%d: only %d/64 items ran", w, got)
		}
		if !rep.Complete() {
			t.Fatalf("workers=%d: run not complete: %+v", w, rep)
		}
		if len(rep.Errors) != 2 {
			t.Fatalf("workers=%d: %d errors, want 2", w, len(rep.Errors))
		}
		if rep.Errors[0].Index != 17 || rep.Errors[1].Index != 40 {
			t.Fatalf("workers=%d: error indices %d,%d want 17,40",
				w, rep.Errors[0].Index, rep.Errors[1].Index)
		}
		var pe *PanicError
		if !errors.As(rep.ErrAt(17), &pe) {
			t.Fatalf("workers=%d: item 17 error %v is not a *PanicError", w, rep.ErrAt(17))
		}
		if pe.Value != "poisoned item" {
			t.Fatalf("workers=%d: panic value %v", w, pe.Value)
		}
		if !strings.Contains(pe.Stack, "goroutine") {
			t.Fatalf("workers=%d: panic stack not captured", w)
		}
		if rep.ErrAt(40) == nil || rep.ErrAt(0) != nil {
			t.Fatalf("workers=%d: ErrAt misattributed", w)
		}
		if rep.AsError() == nil {
			t.Fatalf("workers=%d: AsError nil despite item errors", w)
		}
	}
}

// TestForEachCtxCancelPrefix: a cancelled run stops promptly and the
// completed slots form a prefix bit-identical to the uncancelled run.
// Items past 50 wait for the cancellation before they write, so no
// worker can finish the run ahead of the item-50 worker. The chunk
// holding item 50 is claimed before any chunk of later items, so the
// wait cannot deadlock.
func TestForEachCtxCancelPrefix(t *testing.T) {
	const n = 200
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, w := range []int{1, 2, 4} {
		s := NewScheduler(w)
		ctx, cancel := context.WithCancel(context.Background())
		got := make([]int, n)
		rep := s.ForEachCtx(ctx, n, func(i int) error {
			if i == 50 {
				cancel()
			}
			if i > 50 {
				<-ctx.Done()
			}
			got[i] = i * i
			return nil
		})
		if rep.Err == nil || !errors.Is(rep.Err, context.Canceled) {
			t.Fatalf("workers=%d: Err = %v, want context.Canceled", w, rep.Err)
		}
		if rep.Complete() {
			t.Fatalf("workers=%d: cancelled run reported complete", w)
		}
		k := rep.Prefix()
		if k >= n {
			t.Fatalf("workers=%d: cancellation did not cut the run (prefix %d)", w, k)
		}
		if !reflect.DeepEqual(got[:k], want[:k]) {
			t.Fatalf("workers=%d: prefix [0,%d) diverges from uncancelled run", w, k)
		}
		for i, d := range rep.Done {
			if !d && got[i] != 0 {
				t.Fatalf("workers=%d: item %d wrote a result but is not Done", w, i)
			}
		}
		cancel()
	}
}

// TestForEachCtxPreCancelled: an already-dead context does no work at all.
func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		var ran atomic.Int64
		rep := NewScheduler(w).ForEachCtx(ctx, 100, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(rep.Err, context.Canceled) {
			t.Fatalf("workers=%d: Err = %v", w, rep.Err)
		}
		// The chunked loop may admit at most a chunk that was already
		// claimed; with a pre-cancelled context nothing should start.
		if got := ran.Load(); got != 0 {
			t.Fatalf("workers=%d: %d items ran under a dead context", w, got)
		}
	}
}

// TestGenerateOBDTestsCtxCancelPrefix: cancelling generation mid-run
// returns promptly with a Results slice that is a deterministic prefix of
// the uncancelled run's Results.
func TestGenerateOBDTestsCtxCancelPrefix(t *testing.T) {
	c := cells.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(c)
	full := must(NewScheduler(1).GenerateOBDTests(c, faults, nil))

	for _, w := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ts, err := NewScheduler(w).GenerateOBDTestsCtx(ctx, c, faults, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if ts == nil {
			t.Fatalf("workers=%d: nil TestSet on cancellation", w)
		}
		if len(ts.Results) > len(full.Results) {
			t.Fatalf("workers=%d: cancelled run produced MORE results", w)
		}
		for i := range ts.Results {
			if !reflect.DeepEqual(ts.Results[i], full.Results[i]) {
				t.Fatalf("workers=%d: result %d diverges from uncancelled run:\n  got %+v\n want %+v",
					w, i, ts.Results[i], full.Results[i])
			}
		}
	}
}

// TestGenerateOBDTestsCtxDeadline: a deadline context makes generation
// return within a bounded wall time instead of running to completion.
func TestGenerateOBDTestsCtxDeadline(t *testing.T) {
	c := cells.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(c)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline definitely pass
	_, err := NewScheduler(4).GenerateOBDTestsCtx(ctx, c, faults, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestBatchEntryPointsRejectInvalidCircuit: the former mustValid panic is
// now a typed *InvalidCircuitError from every batch entry point.
func TestBatchEntryPointsRejectInvalidCircuit(t *testing.T) {
	sched := NewScheduler(0)
	bad := &logic.Circuit{Name: "dangling"}
	bad.Inputs = []string{"a"}
	bad.Outputs = []string{"nosuch"}

	var ice *InvalidCircuitError
	if _, err := sched.GradeOBD(bad, nil, nil); !errors.As(err, &ice) {
		t.Fatalf("GradeOBD: %v is not *InvalidCircuitError", err)
	}
	if _, err := sched.GradeTransition(bad, nil, nil); !errors.As(err, &ice) {
		t.Fatalf("GradeTransition: %v is not *InvalidCircuitError", err)
	}
	if _, err := sched.GradeStuckAt(bad, nil, nil); !errors.As(err, &ice) {
		t.Fatalf("GradeStuckAt: %v is not *InvalidCircuitError", err)
	}
	if _, err := sched.GradeOBDMulti(bad, nil, nil); !errors.As(err, &ice) {
		t.Fatalf("GradeOBDMulti: %v is not *InvalidCircuitError", err)
	}
	if _, err := sched.AnalyzeExhaustive(bad, nil); !errors.As(err, &ice) {
		t.Fatalf("AnalyzeExhaustive: %v is not *InvalidCircuitError", err)
	}
	if _, err := sched.GenerateOBDTests(bad, nil, nil); !errors.As(err, &ice) {
		t.Fatalf("GenerateOBDTests: %v is not *InvalidCircuitError", err)
	}
	if _, err := sched.DetectionCounts(bad, nil, nil); !errors.As(err, &ice) {
		t.Fatalf("DetectionCounts: %v is not *InvalidCircuitError", err)
	}
	if ice.Unwrap() == nil {
		t.Fatal("InvalidCircuitError does not wrap the validation cause")
	}
}

// TestAnalyzeExhaustiveInputLimit: >16 inputs is a typed error, not a
// panic, and carries the offending sizes.
func TestAnalyzeExhaustiveInputLimit(t *testing.T) {
	c := logic.RippleCarryAdder(9) // 2*9+1 = 19 primary inputs
	faults, _ := fault.OBDUniverse(c)
	_, err := NewScheduler(0).AnalyzeExhaustive(c, faults)
	var ile *InputLimitError
	if !errors.As(err, &ile) {
		t.Fatalf("err %v is not *InputLimitError", err)
	}
	if ile.Limit != 16 || ile.Inputs <= 16 {
		t.Fatalf("limit error carries %d/%d", ile.Inputs, ile.Limit)
	}
}

// TestRunReportPrefixSemantics exercises the report accessors directly.
func TestRunReportPrefixSemantics(t *testing.T) {
	r := &RunReport{N: 5, Done: []bool{true, true, false, true, false}}
	if r.Prefix() != 2 {
		t.Fatalf("prefix %d, want 2", r.Prefix())
	}
	if r.Complete() {
		t.Fatal("incomplete report claims completion")
	}
	if r.AsError() != nil {
		t.Fatal("AsError should be nil without Err/Errors")
	}
	r.Err = context.Canceled
	r.Errors = []*ItemError{{Index: 1, Err: errors.New("boom")}}
	if !errors.Is(r.AsError(), context.Canceled) {
		t.Fatal("AsError loses the context error")
	}
	if r.FirstErr() != r.Errors[0] {
		t.Fatal("FirstErr should prefer the item error")
	}
}

// TestGradeCtxMatchesPlain: the Ctx graders reproduce the plain graders
// bit-for-bit when uncancelled, for several worker counts.
func TestGradeCtxMatchesPlain(t *testing.T) {
	c := cells.FullAdderSumLogic()
	obdFaults, _ := fault.OBDUniverse(c)
	trFaults := fault.TransitionUniverse(c)
	saFaults := fault.StuckAtUniverse(c)
	ts, err := NewScheduler(0).GenerateOBDTests(c, obdFaults, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pats []Pattern
	for _, tp := range ts.Tests {
		pats = append(pats, tp.V1, tp.V2)
	}
	ctx := context.Background()
	for _, w := range []int{1, 2, 8} {
		s := NewScheduler(w)
		wantO, err := s.GradeOBD(c, obdFaults, ts.Tests)
		if err != nil {
			t.Fatal(err)
		}
		gotO, err := s.GradeOBDCtx(ctx, c, obdFaults, ts.Tests)
		if err != nil || !reflect.DeepEqual(gotO, wantO) {
			t.Fatalf("workers=%d: GradeOBDCtx %v (%v), want %v", w, gotO, err, wantO)
		}
		wantT, err := s.GradeTransition(c, trFaults, ts.Tests)
		if err != nil {
			t.Fatal(err)
		}
		gotT, err := s.GradeTransitionCtx(ctx, c, trFaults, ts.Tests)
		if err != nil || !reflect.DeepEqual(gotT, wantT) {
			t.Fatalf("workers=%d: GradeTransitionCtx %v (%v), want %v", w, gotT, err, wantT)
		}
		wantS, err := s.GradeStuckAt(c, saFaults, pats)
		if err != nil {
			t.Fatal(err)
		}
		gotS, err := s.GradeStuckAtCtx(ctx, c, saFaults, pats)
		if err != nil || !reflect.DeepEqual(gotS, wantS) {
			t.Fatalf("workers=%d: GradeStuckAtCtx %v (%v), want %v", w, gotS, err, wantS)
		}
	}
}

// TestGradeCtxCancelled: a cancelled grade reports the context error and
// no (misleading partial) coverage.
func TestGradeCtxCancelled(t *testing.T) {
	c := cells.FullAdderSumLogic()
	faults, _ := fault.OBDUniverse(c)
	ts, err := NewScheduler(0).GenerateOBDTests(c, faults, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cov, err := NewScheduler(2).GradeOBDCtx(ctx, c, faults, ts.Tests)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if cov.Total != 0 || cov.Detected != 0 || cov.Undetected != nil {
		t.Fatalf("cancelled grade leaked partial coverage: %+v", cov)
	}
	// Invalid circuits still surface the typed error, not the ctx error.
	bad := logic.New("bad")
	if err := bad.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	bad.AddOutput("undriven")
	var ice *InvalidCircuitError
	if _, err := NewScheduler(2).GradeOBDCtx(context.Background(), bad, faults, nil); !errors.As(err, &ice) {
		t.Fatalf("err = %v, want *InvalidCircuitError", err)
	}
}
