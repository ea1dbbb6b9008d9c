package mission

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/logic"
	"gobd/internal/obd"
)

func baseConfig() Config {
	return Config{
		Circuit:       cells.FullAdderSumLogic(),
		Seed:          42,
		Chips:         40,
		Duration:      5 * obd.DefaultWindow,
		FaultRate:     3,
		Adversity:     Off(),
		RecordPerChip: true,
	}
}

// TestCampaignDeterminismAcrossWorkers: the acceptance property of the
// mission runtime — the full report (per-chip included) is bit-identical
// for worker counts {1, 2, 8}, for a Config without a scheduler (the
// GOMAXPROCS pool) and across re-runs with the same seed.
func TestCampaignDeterminismAcrossWorkers(t *testing.T) {
	for _, adv := range []Adversity{Off(), Light(), Heavy()} {
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
		if want.Faults == 0 {
			t.Fatal("campaign injected no faults; the property test is vacuous")
		}
		for _, sched := range []*atpg.Scheduler{atpg.NewScheduler(1), atpg.NewScheduler(2), atpg.NewScheduler(8), nil} {
			cfg := cfg
			cfg.Scheduler = sched
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for run := 0; run < 2; run++ {
				got, err := m.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("adversity %+v workers=%d (nil scheduler %t) run=%d: report diverges\n got %+v\nwant %+v",
						adv, sched.WorkerCount(), sched == nil, run, got, want)
				}
			}
		}
	}
}

// TestCampaignZeroEscapesWithoutAdversity: with the test period at the
// sched.Window.MaxTestPeriod bound and adversity off, every injected
// defect is caught before hard breakdown — the paper's concurrent-test
// guarantee, end to end.
func TestCampaignZeroEscapesWithoutAdversity(t *testing.T) {
	cfg := baseConfig()
	cfg.Chips = 60
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Config().Period, m.Window().MaxTestPeriod(); got != want {
		t.Fatalf("default period %g, want MaxTestPeriod %g", got, want)
	}
	rep, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == 0 {
		t.Fatal("no faults injected")
	}
	if rep.Escapes != 0 {
		t.Fatalf("%d escapes with period <= MaxTestPeriod and adversity off", rep.Escapes)
	}
	if rep.Detected+rep.ActiveAtEnd != rep.Faults {
		t.Fatalf("accounting: %d detected + %d latent != %d faults",
			rep.Detected, rep.ActiveAtEnd, rep.Faults)
	}
	if rep.Repaired != rep.Detected {
		t.Fatalf("with unlimited spares %d detected but %d repaired", rep.Detected, rep.Repaired)
	}
	if rep.Retries != 0 || rep.SkippedTests != 0 || rep.AmbiguousDiagnoses < 0 {
		t.Fatalf("adversity off produced retries/skips: %+v", rep)
	}
	if rep.Latency.Count != rep.Detected || rep.Latency.Max > rep.Period {
		t.Fatalf("latency stats inconsistent: %+v (period %g)", rep.Latency, rep.Period)
	}
	if rep.MinMargin <= 0 {
		t.Fatalf("a detection had no margin before HBD: %g", rep.MinMargin)
	}
}

// TestCampaignAdversityCausesEscapes: a period beyond the bound plus a
// hostile profile must produce escapes and retries — the runtime
// actually injects the hazards it claims to.
func TestCampaignAdversityCausesEscapes(t *testing.T) {
	cfg := baseConfig()
	cfg.Chips = 60
	cfg.Adversity = Heavy()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Period = 1.5 * m.Window().MaxTestPeriod()
	m, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Escapes == 0 {
		t.Fatal("heavy adversity with an oversized period produced zero escapes")
	}
	if rep.Retries == 0 || rep.SkippedTests == 0 {
		t.Fatalf("heavy adversity produced no retries/skips: %+v", rep)
	}
	if rep.DegradedChips == 0 {
		t.Fatal("two spares per chip never exhausted over 60 chips")
	}
}

// TestCampaignWorkerPanicConfined: a panicking chip worker becomes a
// typed per-chip error; the other chips' results are byte-identical to
// a clean run's.
func TestCampaignWorkerPanicConfined(t *testing.T) {
	cfg := baseConfig()
	cfg.Scheduler = atpg.NewScheduler(4)
	clean, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.testHook = func(chip int) {
		if chip == 7 {
			panic("chip 7 model corrupted")
		}
	}
	got, err := m.Run(context.Background())
	if err != nil {
		t.Fatalf("a confined panic must not fail the run: %v", err)
	}
	if len(got.Errors) != 1 || got.Errors[0].Index != 7 {
		t.Fatalf("errors %+v, want exactly chip 7", got.Failed)
	}
	var pe *atpg.PanicError
	if !errors.As(got.Errors[0].Err, &pe) {
		t.Fatalf("chip 7 error %v is not a *atpg.PanicError", got.Errors[0].Err)
	}
	if got.Complete != cfg.Chips-1 {
		t.Fatalf("complete %d, want %d", got.Complete, cfg.Chips-1)
	}
	// Every committed chip matches the clean run exactly.
	wantByChip := map[int]ChipResult{}
	for _, c := range want.PerChip {
		wantByChip[c.Chip] = c
	}
	for _, c := range got.PerChip {
		if c.Chip == 7 {
			t.Fatal("failed chip leaked into PerChip")
		}
		if !reflect.DeepEqual(c, wantByChip[c.Chip]) {
			t.Fatalf("chip %d perturbed by the panic:\n got %+v\nwant %+v", c.Chip, c, wantByChip[c.Chip])
		}
	}
}

// TestCampaignCancellation: a cancelled campaign returns promptly with
// ctx's error and a report whose committed chips form a deterministic
// prefix of the uncancelled campaign.
func TestCampaignCancellation(t *testing.T) {
	cfg := baseConfig()
	cfg.Chips = 64
	cfg.Scheduler = atpg.NewScheduler(2)
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var fired atomic.Bool // the hook runs on every worker goroutine
	m.testHook = func(chip int) {
		if chip >= 10 && fired.CompareAndSwap(false, true) {
			cancel()
		}
	}
	got, err := m.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !got.Cancelled {
		t.Fatal("report not marked cancelled")
	}
	if got.Complete >= cfg.Chips {
		t.Fatal("cancellation did not cut the campaign")
	}
	wantByChip := map[int]ChipResult{}
	for _, c := range want.PerChip {
		wantByChip[c.Chip] = c
	}
	for _, c := range got.PerChip {
		if !reflect.DeepEqual(c, wantByChip[c.Chip]) {
			t.Fatalf("chip %d of the cancelled prefix diverges", c.Chip)
		}
	}
	cancel()
}

// TestParseAdversity covers the profile specs and rejection paths.
func TestParseAdversity(t *testing.T) {
	for _, spec := range []string{"off", "", "light", "heavy"} {
		if _, err := ParseAdversity(spec); err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
	}
	adv, err := ParseAdversity("miss=0.1,retries=4,backoff=30,spares=1,skip=0.02")
	if err != nil {
		t.Fatal(err)
	}
	if adv.MissProb != 0.1 || adv.MaxRetries != 4 || adv.RetryBackoff != 30 ||
		adv.Spares != 1 || adv.SkipProb != 0.02 {
		t.Fatalf("custom spec parsed as %+v", adv)
	}
	for _, bad := range []string{"nope=1", "miss", "miss=x", "miss=1.5", "skip=-0.1"} {
		if _, err := ParseAdversity(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

// TestNewRejects covers configuration validation.
func TestNewRejects(t *testing.T) {
	good := baseConfig()
	cases := []func(*Config){
		func(c *Config) { c.Circuit = nil },
		func(c *Config) { c.Chips = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.FaultRate = -1 },
		func(c *Config) { c.FaultRate = 1000 },
		func(c *Config) { c.BISTCycles = 1 },
		func(c *Config) { c.Period = -5 },
		func(c *Config) { c.Period = 1e-6 }, // blows the event bound
		func(c *Config) { c.Adversity.MissProb = 2 },
	}
	for i, mod := range cases {
		cfg := good
		mod(&cfg)
		if _, err := New(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	bad := &logic.Circuit{Name: "empty"}
	cfg := good
	cfg.Circuit = bad
	if _, err := New(cfg); err == nil {
		t.Fatal("unvalidatable circuit accepted")
	}
}

// TestIncludeUndetectableReportsStructuralEscapes: with undetectable
// sites injectable and a tiny BIST stream, escapes at HBD are split out
// as structural.
func TestIncludeUndetectableReportsStructuralEscapes(t *testing.T) {
	cfg := baseConfig()
	cfg.Chips = 80
	cfg.BISTCycles = 2 // nearly blind stream: most sites undetectable
	cfg.IncludeUndetectable = true
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.StructuralEscapes == 0 {
		t.Fatalf("no structural escapes despite a blind stream: %+v", rep)
	}
	if rep.StructuralEscapes > rep.Escapes {
		t.Fatalf("structural escapes %d exceed total escapes %d", rep.StructuralEscapes, rep.Escapes)
	}
}

// BenchmarkMissionCampaign measures campaign wall time across worker
// counts. On single-CPU CI the sweep shows overhead, not speedup; see
// EXPERIMENTS.md.
func BenchmarkMissionCampaign(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(benchName(w), func(b *testing.B) {
			cfg := baseConfig()
			cfg.Chips = 200
			cfg.Adversity = Light()
			cfg.RecordPerChip = false
			cfg.Scheduler = atpg.NewScheduler(w)
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(w int) string {
	return "workers=" + string(rune('0'+w))
}
