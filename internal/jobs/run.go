package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/mission"
)

// missionCkpt is a mission job's checkpoint: the chip-result prefix for
// chips [0, len(Results)). Because simulateChip is a pure function of
// (config, bench, chip index), any prefix stitched with the remaining
// range reproduces the uninterrupted campaign bit-identically.
type missionCkpt struct {
	Chips   int                   `json:"chips"`
	Results []mission.ChipResult  `json:"results"`
	Failed  []mission.ChipFailure `json:"failed,omitempty"`
}

// atpgCkpt is a generation job's checkpoint: the committed-fault prefix
// of a TestSet. Result errors are flattened to text (the final artifact
// only counts statuses) and patterns round-trip exactly through
// logic.Value's text marshaling.
type atpgCkpt struct {
	Model    string            `json:"model"`
	Tests    []atpg.TwoPattern `json:"tests,omitempty"`
	Patterns []atpg.Pattern    `json:"patterns,omitempty"` // stuckat
	Results  []ckptResult      `json:"results"`
}

// ckptResult is the JSON-safe form of atpg.Result.
type ckptResult struct {
	Fault  string           `json:"fault"`
	Status int              `json:"status"`
	Test   *atpg.TwoPattern `json:"test,omitempty"`
	Err    string           `json:"err,omitempty"`
}

func encodeResults(rs []atpg.Result) []ckptResult {
	out := make([]ckptResult, len(rs))
	for i, r := range rs {
		out[i] = ckptResult{Fault: r.Fault, Status: int(r.Status), Test: r.Test}
		if r.Err != nil {
			out[i].Err = r.Err.Error()
		}
	}
	return out
}

func decodeResults(rs []ckptResult) []atpg.Result {
	if rs == nil {
		return nil
	}
	out := make([]atpg.Result, len(rs))
	for i, r := range rs {
		// Err is restored nil: the error value is not reconstructible
		// and nothing downstream of a checkpoint reads it — the final
		// artifact counts statuses only.
		out[i] = atpg.Result{Fault: r.Fault, Status: atpg.Status(r.Status), Test: r.Test}
	}
	return out
}

// marshalArtifact renders a result exactly like the synchronous
// endpoints do (compact JSON plus trailing newline), so a job artifact
// is byte-identical to the equivalent /v1 response body.
func marshalArtifact(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("jobs: encode result: %w", err)
	}
	return append(body, '\n'), nil
}

// runMission executes a mission job in SegmentChips-sized chip ranges,
// checkpointing the stitched prefix after each segment.
func (m *Manager) runMission(ctx context.Context, e *jobEntry, n *normalized) ([]byte, error) {
	ms := n.spec.Mission
	//obdcheck:allow paniccontract — mission.New's only panic path is the obd stage tables, which cover every defined Stage by construction; the spec itself was validated by normalize
	camp, err := mission.New(mission.Config{
		Circuit:             n.circuit,
		Seed:                ms.Seed,
		Chips:               ms.Chips,
		Duration:            ms.Duration,
		Period:              ms.Period,
		FaultRate:           ms.FaultRate,
		BISTCycles:          ms.BISTCycles,
		Adversity:           n.adv,
		IncludeUndetectable: ms.IncludeUndetectable,
		RecordPerChip:       ms.PerChip,
		Scheduler:           atpg.NewScheduler(m.cfg.Workers),
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: mission: %w", err)
	}

	ck := m.loadMissionCheckpoint(e, n)
	results, failed := ck.Results, ck.Failed
	for lo := len(results); lo < ms.Chips; {
		if m.isDraining() {
			return nil, errPaused
		}
		hi := lo + m.cfg.SegmentChips
		if hi > ms.Chips {
			hi = ms.Chips
		}
		rs, fs, err := camp.SimulateRange(ctx, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("jobs: mission chips [%d,%d): %w", lo, hi, err)
		}
		results = append(results, rs...)
		failed = append(failed, fs...)
		lo = hi
		m.setCommitted(e, hi)
		if hi < ms.Chips {
			payload, err := json.Marshal(missionCkpt{Chips: ms.Chips, Results: results, Failed: failed})
			if err != nil {
				return nil, fmt.Errorf("jobs: encode checkpoint: %w", err)
			}
			if err := m.putCheckpoint(n, payload); err != nil {
				return nil, err
			}
		}
	}
	rep, err := camp.Aggregate(results, failed)
	if err != nil {
		return nil, fmt.Errorf("jobs: mission: %w", err)
	}
	return marshalArtifact(&MissionResult{Circuit: n.circuit.Name, Fingerprint: n.fp.String(), Report: rep})
}

// loadMissionCheckpoint restores a chip-prefix checkpoint, dropping it
// (fresh start) when missing, corrupt — the store has already
// quarantined those — or inconsistent with the spec.
func (m *Manager) loadMissionCheckpoint(e *jobEntry, n *normalized) missionCkpt {
	body, err := m.cfg.Store.Get(checkpointKey(n.digest))
	if err != nil {
		return missionCkpt{}
	}
	var ck missionCkpt
	if err := json.Unmarshal(body, &ck); err != nil || ck.Chips != n.spec.Mission.Chips || len(ck.Results) > ck.Chips {
		_ = m.cfg.Store.Delete(checkpointKey(n.digest))
		return missionCkpt{}
	}
	if len(ck.Results) > 0 {
		m.markResumed(e)
		m.setCommitted(e, len(ck.Results))
	}
	return ck
}

// runATPG executes a generation job in SegmentFaults-sized commit
// steps via the scheduler's resume entry points, checkpointing the
// committed prefix after each step.
func (m *Manager) runATPG(ctx context.Context, e *jobEntry, n *normalized) ([]byte, error) {
	c := n.circuit
	model := n.spec.ATPG.Model
	s := atpg.NewScheduler(m.cfg.Workers)

	var obdFaults []fault.OBD
	var transFaults []fault.Transition
	var saFaults []fault.StuckAt
	switch model {
	case "obd":
		obdFaults, _ = fault.OBDUniverse(c)
	case "transition":
		transFaults = fault.TransitionUniverse(c)
	default:
		saFaults = fault.StuckAtUniverse(c)
	}
	total := n.total

	ts, sts := m.loadATPGCheckpoint(e, n, model)
	retried := false
	for {
		if m.isDraining() {
			return nil, errPaused
		}
		committed := 0
		if ts != nil {
			committed = len(ts.Results)
		} else if sts != nil {
			committed = len(sts.Results)
		}
		upto := committed + m.cfg.SegmentFaults
		if upto > total {
			upto = total
		}
		var err error
		switch model {
		case "obd":
			//obdcheck:allow paniccontract — the SAT fallback's encoder DFF panic is unreachable: ResumeOBDTestsCtx rejects DFF-bearing circuits with a typed *SequentialCircuitError before any fallback runs
			ts, err = s.ResumeOBDTestsCtx(ctx, c, obdFaults, n.opt, ts, upto)
		case "transition":
			ts, err = s.ResumeTransitionTestsCtx(ctx, c, transFaults, n.opt, ts, upto)
		default:
			sts, err = s.ResumeStuckAtTestsCtx(ctx, c, saFaults, n.opt, sts, upto)
		}
		if err != nil {
			var rme *atpg.ResumeMismatchError
			if errors.As(err, &rme) && !retried {
				// Poisoned checkpoint (e.g. written by a different
				// version): drop it and regenerate from scratch.
				retried = true
				_ = m.cfg.Store.Delete(checkpointKey(n.digest))
				ts, sts = nil, nil
				m.setCommitted(e, 0)
				continue
			}
			return nil, fmt.Errorf("jobs: atpg: %w", err)
		}
		if ts != nil {
			committed = len(ts.Results)
		} else {
			committed = len(sts.Results)
		}
		m.setCommitted(e, committed)
		if committed >= total {
			break // the final Resume call graded Coverage
		}
		ck := atpgCkpt{Model: model}
		if ts != nil {
			ck.Tests = ts.Tests
			ck.Results = encodeResults(ts.Results)
		} else {
			ck.Patterns = sts.Tests
			ck.Results = encodeResults(sts.Results)
		}
		payload, err := json.Marshal(ck)
		if err != nil {
			return nil, fmt.Errorf("jobs: encode checkpoint: %w", err)
		}
		if err := m.putCheckpoint(n, payload); err != nil {
			return nil, err
		}
	}

	res := &ATPGResult{
		Circuit:     c.Name,
		Fingerprint: n.fp.String(),
		Model:       model,
		Faults:      total,
	}
	var results []atpg.Result
	if ts != nil {
		results = ts.Results
		res.Coverage = coverageResult(ts.Coverage)
		res.Pairs = pairsFor(c, ts.Tests)
	} else {
		results = sts.Results
		res.Coverage = coverageResult(sts.Coverage)
		res.Patterns = patternsFor(c, sts.Tests)
	}
	for _, r := range results {
		switch r.Status {
		case atpg.Detected:
			res.Detected++
		case atpg.Untestable:
			res.Untestable++
		case atpg.Aborted:
			res.Aborted++
		case atpg.Errored:
			res.Errored++
		}
	}
	return marshalArtifact(res)
}

// loadATPGCheckpoint restores a committed-prefix checkpoint into the
// model's test-set shape, dropping stale or mismatched ones.
func (m *Manager) loadATPGCheckpoint(e *jobEntry, n *normalized, model string) (*atpg.TestSet, *atpg.StuckAtTestSet) {
	body, err := m.cfg.Store.Get(checkpointKey(n.digest))
	if err != nil {
		return nil, nil
	}
	var ck atpgCkpt
	if err := json.Unmarshal(body, &ck); err != nil || ck.Model != model {
		_ = m.cfg.Store.Delete(checkpointKey(n.digest))
		return nil, nil
	}
	if len(ck.Results) == 0 {
		return nil, nil
	}
	m.markResumed(e)
	m.setCommitted(e, len(ck.Results))
	if model == "stuckat" {
		return nil, &atpg.StuckAtTestSet{Tests: ck.Patterns, Results: decodeResults(ck.Results)}
	}
	return &atpg.TestSet{Tests: ck.Tests, Results: decodeResults(ck.Results)}, nil
}
