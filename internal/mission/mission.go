// Package mission is a deterministic, seeded discrete-event simulator of
// a chip population running the paper's concurrent test/diagnose/repair
// loop in the field. OBD defects initiate at random (seeded) times on
// random transistor sites and progress from soft toward hard breakdown
// per obd.Progression; a periodic BIST policy — its period derived from
// sched.Window.MaxTestPeriod — must detect each defect while it is
// observable, diagnose it against a diag.Dictionary, and swap in a spare
// before the defect crosses HBD. Injected adversity (skipped and late
// intervals, transient signature-capture misses with bounded backoff,
// diagnosis ambiguity, exhausted repair resources) turns the idealized
// policy of the paper into a mission whose escapes can be counted.
//
// The campaign fans the chip population out over an atpg.Scheduler and
// is bit-identical for any worker count: all randomness comes from keyed
// splitmix64 streams (see rng.go), simulated time never reads the wall
// clock, and per-chip results are committed to index-stable slots.
package mission

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"gobd/internal/atpg"
	"gobd/internal/bist"
	"gobd/internal/diag"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/obd"
	"gobd/internal/sched"
	"gobd/internal/spice"
)

// Config parameterizes a campaign. All times are simulated seconds.
type Config struct {
	// Circuit is the unit under concurrent test.
	Circuit *logic.Circuit
	// Seed drives every random draw of the campaign.
	Seed uint64
	// Chips is the population size.
	Chips int
	// Duration is the mission length.
	Duration float64
	// Period is the test interval; 0 derives the largest safe period from
	// the observability window (sched.Window.MaxTestPeriod).
	Period float64
	// FaultRate is the expected number of defect initiations per chip
	// over the mission (Poisson).
	FaultRate float64
	// BISTCycles is the length of the LFSR stream each interval applies.
	BISTCycles int
	// Adversity is the hazard profile.
	Adversity Adversity
	// IncludeUndetectable also injects defects the BIST stream cannot
	// detect (aliased or never-excited sites); they are reported as
	// structural escapes instead of silently excluded.
	IncludeUndetectable bool
	// RecordPerChip keeps every chip's ChipResult in the report.
	RecordPerChip bool
	// Scheduler shards the population; nil runs a GOMAXPROCS-sized pool.
	Scheduler *atpg.Scheduler
}

// maxTestEvents bounds Duration/Period so a mistyped flag cannot ask for
// a billion-event schedule.
const maxTestEvents = 5_000_000

// bench is the per-circuit precomputation shared read-only by every
// chip worker: BIST detectability, the diagnosis dictionary, and the
// side-dependent observability window of the progression model.
type bench struct {
	c        *logic.Circuit
	universe []fault.OBD
	pairs    []atpg.TwoPattern
	detect   []bool       // universe-indexed: non-aliased BIST detection
	cands    []int        // universe-indexed: diagnosis candidates for the site's signature
	inject   []int        // universe indices eligible for injection
	obsStart [2]float64   // fault.Side-indexed: time after initiation the defect becomes observable (MBD2)
	hbdAt    [2]float64   // fault.Side-indexed: time after initiation of hard breakdown
	window   sched.Window // tightest observability window across sides
}

// Campaign is a configured, reusable mission simulation.
type Campaign struct {
	cfg Config
	b   *bench
	// testHook, when set (tests only), runs at the start of each chip's
	// simulation; it is the injection point for worker-panic tests.
	testHook func(chip int)
}

// polarity maps a defect side to the broken transistor's polarity: a
// pull-up defect breaks a PMOS device, a pull-down defect an NMOS one.
func polarity(s fault.Side) spice.MOSPolarity {
	if s == fault.PullUp {
		return spice.PMOS
	}
	return spice.NMOS
}

// New validates the configuration and precomputes the shared bench.
func New(cfg Config) (*Campaign, error) {
	if cfg.Circuit == nil {
		return nil, fmt.Errorf("mission: nil circuit")
	}
	if err := cfg.Circuit.Validate(); err != nil {
		return nil, fmt.Errorf("mission: %w", err)
	}
	if cfg.Chips <= 0 {
		return nil, fmt.Errorf("mission: Chips = %d, need > 0", cfg.Chips)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("mission: Duration = %g, need > 0", cfg.Duration)
	}
	if cfg.FaultRate < 0 || cfg.FaultRate > 100 {
		return nil, fmt.Errorf("mission: FaultRate = %g outside [0, 100]", cfg.FaultRate)
	}
	if cfg.BISTCycles == 0 {
		cfg.BISTCycles = 64
	}
	if cfg.BISTCycles < 2 {
		return nil, fmt.Errorf("mission: BISTCycles = %d, need >= 2", cfg.BISTCycles)
	}
	if _, err := cfg.Adversity.validate(); err != nil {
		return nil, err
	}
	b, err := buildBench(&cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Period == 0 {
		cfg.Period = b.window.MaxTestPeriod()
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("mission: Period = %g, need > 0", cfg.Period)
	}
	if cfg.Duration/cfg.Period > maxTestEvents {
		return nil, fmt.Errorf("mission: %g test intervals exceed the %d-event bound",
			cfg.Duration/cfg.Period, maxTestEvents)
	}
	return &Campaign{cfg: cfg, b: b}, nil
}

// Config returns the resolved configuration (defaults applied).
func (m *Campaign) Config() Config { return m.cfg }

// Window returns the tightest observability window the test period must
// beat: Start is the MBD2 onset after initiation, End the HBD crossing.
func (m *Campaign) Window() sched.Window { return m.b.window }

// buildBench runs the BIST stream against the fault universe once and
// derives the observability windows from the progression model.
func buildBench(cfg *Config) (*bench, error) {
	c := cfg.Circuit
	universe, _ := fault.OBDUniverse(c)
	if len(universe) == 0 {
		return nil, fmt.Errorf("mission: circuit %q has no OBD fault sites", c.Name)
	}
	// The BIST stream is a function of the campaign seed, so two
	// campaigns with the same seed test with the same patterns.
	session, err := bist.NewSession(c, mix(cfg.Seed+0xB157), cfg.BISTCycles)
	if err != nil {
		return nil, fmt.Errorf("mission: %w", err)
	}
	golden, err := session.GoldenSignature()
	if err != nil {
		return nil, fmt.Errorf("mission: %w", err)
	}
	results, err := session.RunFaults(universe, golden, cfg.Scheduler)
	if err != nil {
		return nil, fmt.Errorf("mission: %w", err)
	}
	b := &bench{
		c:        c,
		universe: universe,
		pairs:    session.Pairs(),
		detect:   make([]bool, len(universe)),
		cands:    make([]int, len(universe)),
	}
	dict := diag.Build(c, universe, b.pairs)
	for i, r := range results {
		b.detect[i] = r.DetectedCycles > 0 && !r.Aliased
		if b.detect[i] {
			cands, _, err := dict.Diagnose(dict.Signature(i))
			if err != nil {
				return nil, fmt.Errorf("mission: diagnosing %s: %w", universe[i], err)
			}
			b.cands[i] = len(cands)
		}
		if b.detect[i] || cfg.IncludeUndetectable {
			b.inject = append(b.inject, i)
		}
	}
	if len(b.inject) == 0 {
		return nil, fmt.Errorf("mission: no BIST-detectable OBD site in %q (%d-cycle stream); raise BISTCycles or set IncludeUndetectable", c.Name, cfg.BISTCycles)
	}
	// Observability windows per side from the progression model: the
	// defect's delay contribution is taken as test-observable from the
	// MBD2 stage onward, and the mission is lost at hard breakdown.
	for _, side := range []fault.Side{fault.PullUp, fault.PullDown} {
		prog := obd.NewProgression(polarity(side)) //obdcheck:allow paniccontract — polarity() returns only the two defined MOS polarities, whose default progressions visit only defined stages
		st := prog.StageTimes()                    //obdcheck:allow paniccontract — same contract: the default progression's stages are all Table 1 rows
		b.obsStart[side] = st[obd.MBD2]
		b.hbdAt[side] = st[obd.HBD]
	}
	// The paper's scheduling rule wants the test period at most half the
	// detectable window; take the tightest window across sides.
	b.window = sched.Window{Detectable: true}
	for _, side := range []fault.Side{fault.PullUp, fault.PullDown} {
		w := sched.Window{Detectable: true, Start: b.obsStart[side], End: b.hbdAt[side]}
		if !b.window.Detectable || b.window.Length() == 0 || w.Length() < b.window.Length() {
			b.window = w
		}
	}
	return b, nil
}

// chipFault is one defect instance on one chip.
type chipFault struct {
	site    int // index into bench.universe
	initAt  float64
	obsAt   float64 // initAt + obsStart(side): first test-observable instant
	hbdAt   float64 // initAt + window(side): hard-breakdown crossing
	state   faultState
	retries int
	miss    *stream // per-fault capture-miss stream, immune to interleaving
	detAt   float64
	repAt   float64
}

type faultState int

const (
	statePending    faultState = iota // latent or observable, not yet captured
	stateDetected                     // captured; diagnosis/repair in flight
	stateRepaired                     // spare swapped in before HBD
	stateEscaped                      // crossed HBD undetected
	stateUnrepaired                   // captured but no spare left: degraded
)

// simulateChip replays one chip's mission. It is a pure function of
// (cfg, bench, chip): no wall clock, no shared mutable state.
func simulateChip(cfg *Config, b *bench, chip int) ChipResult {
	res := ChipResult{Chip: chip}
	adv := cfg.Adversity

	// Defect initiations: count, sites and times from the chip stream.
	chipRng := newStream(cfg.Seed, uint64(chip), 1)
	n := chipRng.poisson(cfg.FaultRate)
	faults := make([]*chipFault, n)
	for j := range faults {
		site := b.inject[chipRng.intn(len(b.inject))]
		initAt := chipRng.float64() * cfg.Duration
		side := b.universe[site].Side
		faults[j] = &chipFault{
			site:   site,
			initAt: initAt,
			obsAt:  initAt + b.obsStart[side],
			hbdAt:  initAt + b.hbdAt[side],
			miss:   newStream(cfg.Seed, uint64(chip), 2, uint64(j)),
		}
	}
	res.Faults = n

	var q eventQueue
	// The test schedule: skip/late draws consumed in interval order from
	// a dedicated stream, so the schedule is independent of the defects.
	schedRng := newStream(cfg.Seed, uint64(chip), 3)
	for k := 1; float64(k)*cfg.Period <= cfg.Duration; k++ {
		t := float64(k) * cfg.Period
		if adv.SkipProb > 0 && schedRng.float64() < adv.SkipProb {
			res.SkippedTests++
			continue
		}
		if adv.LateProb > 0 && schedRng.float64() < adv.LateProb {
			t += adv.LateFrac * cfg.Period
			res.LateTests++
		}
		if t <= cfg.Duration {
			q.push(event{t: t, kind: evTest, idx: -1})
		}
	}
	spares := adv.Spares
	for j, f := range faults {
		if f.hbdAt <= cfg.Duration {
			q.push(event{t: f.hbdAt, kind: evHBD, idx: j})
		}
	}

	attempt := func(f *chipFault, j int, t float64) {
		if adv.MissProb > 0 && f.miss.float64() < adv.MissProb {
			if f.retries < adv.MaxRetries {
				f.retries++
				res.Retries++
				backoff := adv.RetryBackoff * float64(uint64(1)<<uint(f.retries-1))
				q.push(event{t: t + backoff, kind: evRetry, idx: j})
			}
			return
		}
		f.state = stateDetected
		f.detAt = t
		res.Detected++
		res.Latencies = append(res.Latencies, t-f.obsAt)
		res.Margins = append(res.Margins, f.hbdAt-t)
		nCands := b.cands[f.site]
		if nCands > 1 {
			res.Ambiguous++
		}
		done := t + adv.DiagTimePerCand*float64(nCands) + adv.RepairTime
		if spares == 0 {
			f.state = stateUnrepaired
			res.Degraded = true
			return
		}
		if spares > 0 {
			spares--
		}
		f.repAt = done
		q.push(event{t: done, kind: evRepair, idx: j})
	}

	for q.Len() > 0 {
		e := q.pop()
		switch e.kind {
		case evTest:
			for j, f := range faults {
				if f.state != statePending {
					continue
				}
				if e.t < f.obsAt || e.t >= f.hbdAt || !b.detect[f.site] {
					continue
				}
				attempt(f, j, e.t)
			}
		case evRetry:
			f := faults[e.idx]
			if f.state == statePending && e.t < f.hbdAt {
				attempt(f, e.idx, e.t)
			}
		case evHBD:
			f := faults[e.idx]
			switch f.state {
			case statePending:
				f.state = stateEscaped
				res.Escapes++
				if !b.detect[f.site] {
					res.StructuralEscapes++
				}
			case stateDetected:
				if f.repAt > f.hbdAt {
					res.LateRepairs++
				}
			default:
				// stateRepaired/stateUnrepaired: the breakdown was already
				// resolved (or accounted as degraded) before its HBD instant;
				// stateEscaped cannot recur — each fault has one evHBD event.
			}
		case evRepair:
			f := faults[e.idx]
			if f.state == stateDetected {
				f.state = stateRepaired
				res.Repaired++
			}
		}
	}
	for _, f := range faults {
		if f.state == statePending && f.hbdAt > cfg.Duration {
			res.ActiveAtEnd++
		}
	}
	return res
}

// Run executes the campaign, fanning the chip population out over
// Config.Scheduler (nil runs a GOMAXPROCS-sized pool). The report is
// bit-identical for any worker count. A chip whose simulation panics is
// confined to a typed per-chip error in the report without perturbing
// the other chips; ctx cancellation returns promptly with ctx's error
// and a report covering the completed deterministic prefix.
func (m *Campaign) Run(ctx context.Context) (*Report, error) {
	results := make([]ChipResult, m.cfg.Chips)
	rep := m.cfg.Scheduler.ForEachCtx(ctx, m.cfg.Chips, func(i int) error {
		if m.testHook != nil {
			m.testHook(i)
		}
		results[i] = simulateChip(&m.cfg, m.b, i)
		return nil
	})
	report := aggregate(&m.cfg, m.b, results, rep)
	return report, rep.Err
}

// SimulateRange simulates the chip interval [lo, hi) of the population
// and returns the per-chip results in chip order. Each chip is a pure
// function of (config, bench, chip index), so a campaign can be split
// into arbitrary ranges — across calls, goroutines or process restarts
// — and stitched back together with Aggregate into a report
// bit-identical to an uninterrupted Run. This is the checkpoint surface
// of the durable job runtime (internal/jobs): a crashed campaign
// resumes at the last committed chip boundary.
//
// A chip whose simulation panics is confined to a ChipFailure (its
// result slot stays zero and must be excluded from aggregation, which
// Aggregate does). Cancelling ctx abandons the range with ctx's error;
// no partial range is returned.
func (m *Campaign) SimulateRange(ctx context.Context, lo, hi int) ([]ChipResult, []ChipFailure, error) {
	if lo < 0 || hi > m.cfg.Chips || lo > hi {
		return nil, nil, fmt.Errorf("mission: chip range [%d, %d) outside population [0, %d)", lo, hi, m.cfg.Chips)
	}
	results := make([]ChipResult, hi-lo)
	rep := m.cfg.Scheduler.ForEachCtx(ctx, hi-lo, func(k int) error {
		chip := lo + k
		if m.testHook != nil {
			m.testHook(chip)
		}
		results[k] = simulateChip(&m.cfg, m.b, chip)
		return nil
	})
	if rep.Err != nil {
		return nil, nil, rep.Err
	}
	var failed []ChipFailure
	for _, e := range rep.Errors {
		failed = append(failed, ChipFailure{Chip: lo + e.Index, Error: e.Err.Error()})
	}
	return results, failed, nil
}

// Aggregate folds externally accumulated per-chip results — typically
// SimulateRange outputs stitched across checkpoints — into a campaign
// Report. results must cover the whole population in chip order; failed
// names the chips whose simulation failed (their slots are excluded,
// exactly as Run excludes them). For a complete, failure-free result
// set the report is bit-identical to Run's; with failures, the
// JSON-visible fields (including Failed) still match Run, while the
// unserialized Errors field carries reconstructed errors that preserve
// only the failure text.
func (m *Campaign) Aggregate(results []ChipResult, failed []ChipFailure) (*Report, error) {
	if len(results) != m.cfg.Chips {
		return nil, fmt.Errorf("mission: %d results for a %d-chip campaign", len(results), m.cfg.Chips)
	}
	rep := &atpg.RunReport{N: m.cfg.Chips, Done: make([]bool, m.cfg.Chips)}
	for i := range rep.Done {
		rep.Done[i] = true
	}
	sorted := append([]ChipFailure(nil), failed...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Chip < sorted[b].Chip })
	for _, f := range sorted {
		if f.Chip < 0 || f.Chip >= m.cfg.Chips {
			return nil, fmt.Errorf("mission: failure for chip %d outside population [0, %d)", f.Chip, m.cfg.Chips)
		}
		rep.Errors = append(rep.Errors, &atpg.ItemError{Index: f.Chip, Err: errors.New(f.Error)})
	}
	return aggregate(&m.cfg, m.b, results, rep), nil
}
