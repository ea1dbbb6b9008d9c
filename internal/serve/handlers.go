package serve

import (
	"context"
	"net/http"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/mission"
	"gobd/internal/netcheck"
	"gobd/internal/seq"
)

// handleGrade grades a pattern set against a fault universe (POST).
func (s *Server) handleGrade(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r, "grade") {
		return
	}
	var req GradeRequest
	if aerr := s.decodeJSON(w, r, &req); aerr != nil {
		s.writeError(w, aerr)
		return
	}
	s.serveJob(w, r, func() (*job, *apiError) {
		c, aerr := parseNetlist(req.Netlist, true)
		if aerr != nil {
			return nil, aerr
		}
		model, aerr := resolveModel(req.Model)
		if aerr != nil {
			return nil, aerr
		}
		// Sequential netlists are graded through the combinational core:
		// vectors span the core's inputs (originals, then state bits in
		// chain order), exactly what the scan hardware can apply.
		core, ffs, aerr := coreOf(c)
		if aerr != nil {
			return nil, aerr
		}
		var pairs []atpg.TwoPattern
		var pats []atpg.Pattern
		switch model {
		case ModelStuckAt:
			if len(req.Tests) > 0 {
				return nil, badRequest(CodeBadRequest, "model %q grades single vectors; use \"patterns\", not \"tests\"", model)
			}
			for i, v := range req.Patterns {
				p, err := atpg.ParsePattern(v, core)
				if err != nil {
					return nil, badRequest(CodeBadRequest, "patterns[%d]: %v", i, err)
				}
				pats = append(pats, p)
			}
		default: // obd, transition
			if len(req.Patterns) > 0 {
				return nil, badRequest(CodeBadRequest, "model %q grades vector pairs; use \"tests\", not \"patterns\"", model)
			}
			pairs, aerr = parsePairs(req.Tests, core)
			if aerr != nil {
				return nil, aerr
			}
		}
		// Canonicalize the request before hashing so formatting variants
		// of the same workload ("x" vs "X") share a cache entry. The
		// digest covers the ORIGINAL netlist, so a sequential circuit and
		// its bare core occupy distinct entries.
		canon := GradeRequest{Model: model}
		for _, tp := range pairs {
			canon.Tests = append(canon.Tests, WirePair{V1: tp.V1.KeyFor(core), V2: tp.V2.KeyFor(core)})
		}
		for _, p := range pats {
			canon.Patterns = append(canon.Patterns, p.KeyFor(core))
		}
		fp := fingerprintOf(c)
		dig, err := digest("/v1/grade", fp, logic.Format(c), canon)
		if err != nil {
			return nil, coreError(err)
		}
		obdFaults, transFaults, saFaults, nFaults := universe(core, model)
		return &job{
			digest: dig,
			faults: nFaults,
			tests:  len(pairs) + len(pats),
			compute: func(ctx context.Context, sched *atpg.Scheduler) (any, error) {
				var cov atpg.Coverage
				var err error
				switch model {
				case ModelOBD:
					cov, err = sched.GradeOBDCtx(ctx, core, obdFaults, pairs)
				case ModelTransition:
					cov, err = sched.GradeTransitionCtx(ctx, core, transFaults, pairs)
				default:
					cov, err = sched.GradeStuckAtCtx(ctx, core, saFaults, pats)
				}
				if err != nil {
					return nil, err
				}
				return &GradeResponse{
					Circuit:     c.Name,
					Fingerprint: fp.String(),
					Model:       model,
					FFs:         ffs,
					Faults:      nFaults,
					Tests:       len(pairs) + len(pats),
					Coverage:    toWire(cov),
				}, nil
			},
		}, nil
	})
}

// coreOf resolves the circuit a grading job actually runs on: the circuit
// itself when combinational, its combinational core (plus the flip-flop
// count) when sequential.
func coreOf(c *logic.Circuit) (*logic.Circuit, int, *apiError) {
	ffs := len(c.DFFs())
	if ffs == 0 {
		return c, 0, nil
	}
	core, err := c.CombinationalCore()
	if err != nil {
		return nil, 0, badRequest(CodeInvalidCircuit, "%v", err)
	}
	return core, ffs, nil
}

// handleATPG generates a compacted test set for a fault universe (POST).
func (s *Server) handleATPG(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r, "atpg") {
		return
	}
	var req ATPGRequest
	if aerr := s.decodeJSON(w, r, &req); aerr != nil {
		s.writeError(w, aerr)
		return
	}
	s.serveJob(w, r, func() (*job, *apiError) {
		c, aerr := parseNetlist(req.Netlist, true)
		if aerr != nil {
			return nil, aerr
		}
		model, aerr := resolveModel(req.Model)
		if aerr != nil {
			return nil, aerr
		}
		if req.MaxBacktracks < 0 {
			return nil, badRequest(CodeBadRequest, "max_backtracks must be >= 0, got %d", req.MaxBacktracks)
		}
		// Sequential requests route through the scan-style generators; a
		// DFF-bearing netlist with no explicit style gets enhanced scan.
		styleName := req.Style
		if styleName == "" && c.HasDFF() {
			styleName = "enhanced"
		}
		if styleName != "" {
			return s.seqATPGJob(c, model, styleName, &req)
		}
		if req.Prune && model != ModelOBD {
			return nil, badRequest(CodeBadRequest, "prune applies to the obd model only")
		}
		opt := atpg.DefaultOptions()
		opt.Prune = req.Prune
		if req.MaxBacktracks > 0 {
			opt.MaxBacktracks = req.MaxBacktracks
		}
		fp := fingerprintOf(c)
		canon := ATPGRequest{Model: model, Prune: req.Prune, MaxBacktracks: opt.MaxBacktracks}
		dig, err := digest("/v1/atpg", fp, logic.Format(c), canon)
		if err != nil {
			return nil, coreError(err)
		}
		obdFaults, transFaults, saFaults, nFaults := universe(c, model)
		return &job{
			digest: dig,
			faults: nFaults,
			compute: func(ctx context.Context, sched *atpg.Scheduler) (any, error) {
				resp := &ATPGResponse{
					Circuit:     c.Name,
					Fingerprint: fp.String(),
					Model:       model,
					Faults:      nFaults,
				}
				var results []atpg.Result
				switch model {
				case ModelOBD:
					ts, err := sched.GenerateOBDTestsCtx(ctx, c, obdFaults, opt)
					if err != nil {
						return nil, err
					}
					results = ts.Results
					resp.Coverage = toWire(ts.Coverage)
					for _, tp := range ts.Tests {
						resp.Pairs = append(resp.Pairs, WirePair{V1: tp.V1.KeyFor(c), V2: tp.V2.KeyFor(c)})
					}
				case ModelTransition:
					ts, err := sched.GenerateTransitionTestsCtx(ctx, c, transFaults, opt)
					if err != nil {
						return nil, err
					}
					results = ts.Results
					resp.Coverage = toWire(ts.Coverage)
					for _, tp := range ts.Tests {
						resp.Pairs = append(resp.Pairs, WirePair{V1: tp.V1.KeyFor(c), V2: tp.V2.KeyFor(c)})
					}
				default:
					ts, err := sched.GenerateStuckAtTestsCtx(ctx, c, saFaults, opt)
					if err != nil {
						return nil, err
					}
					results = ts.Results
					resp.Coverage = toWire(ts.Coverage)
					for _, p := range ts.Tests {
						resp.Patterns = append(resp.Patterns, p.KeyFor(c))
					}
				}
				for _, res := range results {
					switch res.Status {
					case atpg.Detected:
						resp.Detected++
					case atpg.Untestable:
						resp.Untestable++
					case atpg.Aborted:
						resp.Aborted++
					case atpg.Errored:
						resp.Errored++
					}
				}
				return resp, nil
			},
		}, nil
	})
}

// seqATPGJob builds the /v1/atpg job for a scan-style request: the
// netlist is lifted into its scan model (internal/seq) and the style's
// generator runs over the combinational core's OBD universe. Results are
// worker-count invariant by construction (per-fault derived seeds).
func (s *Server) seqATPGJob(c *logic.Circuit, model, styleName string, req *ATPGRequest) (*job, *apiError) {
	if model != ModelOBD {
		return nil, badRequest(CodeBadRequest, "scan styles apply to the obd model only, got %q", model)
	}
	if req.Prune {
		return nil, badRequest(CodeBadRequest, "prune applies to the combinational obd generator only")
	}
	st, err := seq.ParseStyle(styleName)
	if err != nil {
		return nil, badRequest(CodeBadRequest, "%v", err)
	}
	sc, err := seq.FromCircuit(c)
	if err != nil {
		return nil, badRequest(CodeInvalidCircuit, "%v", err)
	}
	fp := fingerprintOf(c)
	// Canonical params carry the style in its long form, so "los" and
	// "launch-on-shift" spellings share a cache entry.
	canon := ATPGRequest{Model: model, Style: st.String()}
	dig, err := digest("/v1/atpg", fp, logic.Format(c), canon)
	if err != nil {
		return nil, coreError(err)
	}
	faults, _ := fault.OBDUniverse(sc.Core)
	return &job{
		digest: dig,
		faults: len(faults),
		compute: func(ctx context.Context, sched *atpg.Scheduler) (any, error) {
			res, err := seq.GenerateTestsOn(sched, sc, faults, st, nil)
			if err != nil {
				return nil, err
			}
			resp := &ATPGResponse{
				Circuit:     c.Name,
				Fingerprint: fp.String(),
				Model:       model,
				Style:       st.String(),
				FFs:         len(sc.FFs),
				Faults:      len(faults),
				Coverage:    toWire(res.Coverage),
			}
			for _, tp := range res.Tests {
				resp.Pairs = append(resp.Pairs, WirePair{V1: tp.V1.KeyFor(sc.Core), V2: tp.V2.KeyFor(sc.Core)})
			}
			for _, verdict := range res.Statuses {
				switch verdict {
				case atpg.Detected:
					resp.Detected++
				case atpg.Untestable:
					resp.Untestable++
				case atpg.Aborted:
					resp.Aborted++
				case atpg.Errored:
					resp.Errored++
				}
			}
			return resp, nil
		},
	}, nil
}

// handleLint runs static netlist analysis; unlike the other endpoints it
// accepts circuits that fail structural validation — diagnosing those is
// its purpose (POST).
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r, "lint") {
		return
	}
	var req LintRequest
	if aerr := s.decodeJSON(w, r, &req); aerr != nil {
		s.writeError(w, aerr)
		return
	}
	s.serveJob(w, r, func() (*job, *apiError) {
		c, aerr := parseNetlist(req.Netlist, false)
		if aerr != nil {
			return nil, aerr
		}
		if req.TopHard < 0 {
			return nil, badRequest(CodeBadRequest, "top_hard must be >= 0, got %d", req.TopHard)
		}
		fp := fingerprintOf(c) // zero when the circuit does not validate
		canon := LintRequest{SkipFaults: req.SkipFaults, TopHard: req.TopHard}
		dig, err := digest("/v1/lint", fp, logic.Format(c), canon)
		if err != nil {
			return nil, coreError(err)
		}
		return &job{
			digest: dig,
			compute: func(ctx context.Context, sched *atpg.Scheduler) (any, error) {
				// The exact census is a pure function of the circuit
				// (under the fixed default budget), so the cache digest
				// over (fingerprint, canon) identifies the response.
				resp := &LintResponse{Report: netcheck.Analyze(c, netcheck.Options{
					SkipFaults: req.SkipFaults,
					TopHard:    req.TopHard,
				})}
				if fp != (logic.Fingerprint{}) {
					resp.Fingerprint = fp.String()
				}
				return resp, nil
			},
		}, nil
	})
}

// handleMission runs a seeded concurrent-test mission campaign (POST).
func (s *Server) handleMission(w http.ResponseWriter, r *http.Request) {
	if !s.requirePost(w, r, "mission") {
		return
	}
	var req MissionRequest
	if aerr := s.decodeJSON(w, r, &req); aerr != nil {
		s.writeError(w, aerr)
		return
	}
	s.serveJob(w, r, func() (*job, *apiError) {
		c, aerr := parseNetlist(req.Netlist, true)
		if aerr != nil {
			return nil, aerr
		}
		if n := len(c.DFFs()); n > 0 {
			return nil, badRequest(CodeSequential, "mission campaigns are combinational-only; circuit has %d flip-flops", n)
		}
		if req.Chips > s.cfg.MissionMaxChips {
			return nil, badRequest(CodeBadRequest, "chips = %d exceeds the server limit %d", req.Chips, s.cfg.MissionMaxChips)
		}
		adv, aerr := parseAdversity(req.Adversity)
		if aerr != nil {
			return nil, aerr
		}
		fp := fingerprintOf(c)
		// The canonical params include the parsed adversity profile, so
		// spelling variants of the same profile share a cache entry.
		canon := struct {
			MissionRequest
			Profile mission.Adversity `json:"profile"`
		}{MissionRequest: req, Profile: adv}
		canon.Netlist = ""
		canon.Adversity = ""
		dig, err := digest("/v1/mission", fp, logic.Format(c), canon)
		if err != nil {
			return nil, coreError(err)
		}
		return &job{
			digest: dig,
			compute: func(ctx context.Context, sched *atpg.Scheduler) (any, error) {
				camp, err := mission.New(mission.Config{
					Circuit:             c,
					Seed:                req.Seed,
					Chips:               req.Chips,
					Duration:            req.Duration,
					Period:              req.Period,
					FaultRate:           req.FaultRate,
					BISTCycles:          req.BISTCycles,
					Adversity:           adv,
					IncludeUndetectable: req.IncludeUndetectable,
					RecordPerChip:       req.PerChip,
					Scheduler:           sched,
				})
				if err != nil {
					// mission.New only fails on configuration problems —
					// the netlist itself was validated above.
					return nil, badRequest(CodeBadRequest, "%v", err)
				}
				rep, err := camp.Run(ctx)
				if err != nil {
					// Cancelled campaigns have deterministic-prefix
					// semantics (RunReport.Prefix) but are never cached or
					// served; partial data must not masquerade as a result.
					return nil, err
				}
				return &MissionResponse{Circuit: c.Name, Fingerprint: fp.String(), Report: rep}, nil
			},
		}, nil
	})
}

// resolveModel normalizes and validates the wire model name.
func resolveModel(m string) (string, *apiError) {
	switch m {
	case "":
		return ModelOBD, nil
	case ModelOBD, ModelTransition, ModelStuckAt:
		return m, nil
	default:
		return "", badRequest(CodeBadRequest, "unknown model %q (want obd, transition or stuckat)", m)
	}
}

// universe enumerates the fault list for a model up front (cheap, linear
// in circuit size) so handlers can report batch telemetry before compute.
func universe(c *logic.Circuit, model string) (obd []fault.OBD, trans []fault.Transition, sa []fault.StuckAt, n int) {
	switch model {
	case ModelOBD:
		obd, _ = fault.OBDUniverse(c)
		n = len(obd)
	case ModelTransition:
		trans = fault.TransitionUniverse(c)
		n = len(trans)
	default:
		sa = fault.StuckAtUniverse(c)
		n = len(sa)
	}
	return obd, trans, sa, n
}
