package mission

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"gobd/internal/atpg"
)

// TestSimulateRangeAggregateEquivalence: splitting a campaign into chip
// ranges (any boundaries, any worker count) and folding them back with
// Aggregate must reproduce Run's report bit-identically — the property
// the durable job runtime's checkpoint/resume rests on. A nil scheduler
// (the GOMAXPROCS pool) is one more pool.
func TestSimulateRangeAggregateEquivalence(t *testing.T) {
	for _, adv := range []Adversity{Off(), Heavy()} {
		cfg := baseConfig()
		cfg.Adversity = adv
		cfg.Scheduler = atpg.NewScheduler(1)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []*atpg.Scheduler{atpg.NewScheduler(1), atpg.NewScheduler(2), atpg.NewScheduler(8), nil} {
			cfg := cfg
			cfg.Scheduler = sched
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []int{1, 7, cfg.Chips} {
				var results []ChipResult
				var failed []ChipFailure
				for lo := 0; lo < cfg.Chips; lo += step {
					hi := lo + step
					if hi > cfg.Chips {
						hi = cfg.Chips
					}
					rs, fs, err := m.SimulateRange(context.Background(), lo, hi)
					if err != nil {
						t.Fatal(err)
					}
					results = append(results, rs...)
					failed = append(failed, fs...)
				}
				got, err := m.Aggregate(results, failed)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("adversity %+v workers=%d (nil scheduler %t) step=%d: stitched report diverges from Run",
						adv, sched.WorkerCount(), sched == nil, step)
				}
			}
		}
	}
}

// TestAggregateWithFailures: a chip failure recorded by SimulateRange
// survives the stitch — the JSON-visible report matches Run's for the
// same panic, and the failed chip stays out of the aggregates.
func TestAggregateWithFailures(t *testing.T) {
	cfg := baseConfig()
	cfg.Scheduler = atpg.NewScheduler(2)
	poison := func(chip int) {
		if chip == 7 {
			panic("chip 7 model corrupted")
		}
	}

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.testHook = poison
	want, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.testHook = poison
	var results []ChipResult
	var failed []ChipFailure
	for lo := 0; lo < cfg.Chips; lo += 5 {
		rs, fs, err := m.SimulateRange(context.Background(), lo, lo+5)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, rs...)
		failed = append(failed, fs...)
	}
	if len(failed) != 1 || failed[0].Chip != 7 {
		t.Fatalf("failed = %+v, want exactly chip 7", failed)
	}
	got, err := m.Aggregate(results, failed)
	if err != nil {
		t.Fatal(err)
	}
	// Errors carries reconstructed values (text only), so compare the
	// JSON-visible report — the bytes the artifact store persists.
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("stitched report with failures diverges:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestSimulateRangeBounds: out-of-range intervals and mismatched result
// sets are rejected, not silently truncated.
func TestSimulateRangeBounds(t *testing.T) {
	m, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 3}, {0, 1000}, {5, 2}} {
		if _, _, err := m.SimulateRange(context.Background(), r[0], r[1]); err == nil {
			t.Fatalf("range %v accepted", r)
		}
	}
	if _, err := m.Aggregate(make([]ChipResult, 3), nil); err == nil {
		t.Fatal("short result set accepted")
	}
	if _, err := m.Aggregate(make([]ChipResult, baseConfig().Chips), []ChipFailure{{Chip: -2}}); err == nil {
		t.Fatal("out-of-range failure accepted")
	}
}
