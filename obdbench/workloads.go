package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"

	"gobd/internal/atpg"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/netcheck"
	"gobd/internal/seq"
)

// workload is one input set and op. Every workload is a closed loop: a
// client sends its next op only after the previous one returned.
type workload struct {
	name    string
	why     string
	tail    float64 // percentile reported as latency_tail_ms
	warmup  int     // untimed ops between setup and the timed loop
	clients int     // closed-loop callers
	// cycle is the period of the op classes (scan styles, fault orders).
	// A traced run traces every other cycle of ops, so traced and
	// untraced ops cover every class alike.
	cycle int
	setup func(seed int64) (instance, error)
}

// instance is one set-up workload: the inputs made from the seed plus
// whatever its op needs.
type instance interface {
	// input builds op i's input outside the timed interval (nil when the
	// op needs none).
	input(i int) (any, error)
	// op runs op i and checks its output against the oracle. tr is nil
	// in untraced runs, which call only the user-facing entry points.
	op(i int, in any, tr *tracer) error
	// class names op i's kind for the per-class latency lines ("" when
	// every op is alike).
	class(i int) string
	// probe runs, after a traced loop, the layer calls that the ops make
	// where spans from outside cannot reach them.
	probe(tr *tracer) error
	// finish runs the run-level oracle checks after the loop.
	finish() error
	// digests fingerprints the generated inputs (and, for grade-10k, the
	// first op's coverage) for the drift guard.
	digests() map[string]string
	close()
}

// Batch workloads run one caller on a one-worker scheduler, so they
// measure work per fault rather than scheduling on a shared host. The
// scheduler is deterministic, so the worker count cannot change results.
var workloads = []*workload{
	{
		name:    "grade-10k",
		why:     "big-circuit fault simulation: parse, OBD universe, collapse and event-driven grading of 256 pairs on a 10k-gate circuit",
		tail:    0.90,
		warmup:  3,
		clients: 1,
		cycle:   1,
		setup:   setupGrade,
	},
	{
		name:    "atpg-c432",
		why:     "PODEM with fault dropping on c432: hundreds of one-pair drop graders, so grader construction cost shows",
		tail:    0.90,
		warmup:  atpgOrders,
		clients: 1,
		cycle:   atpgOrders,
		setup:   setupATPG,
	},
	{
		name:    "prove-c432",
		why:     "exact SAT verdicts for all 584 c432 faults: CNF encoding and CDCL search, no grading or PODEM",
		tail:    0.80,
		warmup:  2,
		clients: 1,
		cycle:   1,
		setup:   setupProve,
	},
	{
		name:    "scan-s27",
		why:     "exhaustive scan-style ATPG on s27, cycling LOC, LOS and enhanced scan",
		tail:    0.70,
		warmup:  len(scanStyles),
		clients: 1,
		cycle:   len(scanStyles),
		setup:   setupScan,
	},
	{
		name:    "serve-mix",
		why:     "synthetic /v1 mix, not taken from any traffic record: 2 closed-loop clients, 75% repeats of 16 primed c432 grades (cache hits), 20% new c432 grades, 5% new ATPG circuits",
		tail:    0.99,
		warmup:  200,
		clients: 2,
		cycle:   1,
		setup:   setupServe,
	},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Input files, relative to the repository root the benchmark runs from.
const (
	c432Path = "testdata/c432.bench"
	s27Path  = "testdata/s27.bench"
)

// The c432 census every correct engine reproduces.
const (
	c432Faults     = 584
	c432Detected   = 567
	c432Untestable = 17
)

func sha(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// completePairs draws n fully specified two-patterns over inputs.
func completePairs(rng *rand.Rand, inputs []string, n int) []atpg.TwoPattern {
	mk := func() atpg.Pattern {
		p := make(atpg.Pattern, len(inputs))
		for _, in := range inputs {
			p[in] = logic.FromBool(rng.Intn(2) == 1)
		}
		return p
	}
	out := make([]atpg.TwoPattern, n)
	for i := range out {
		out[i] = atpg.TwoPattern{V1: mk(), V2: mk()}
	}
	return out
}

func pairsDigest(c *logic.Circuit, pairs []atpg.TwoPattern) string {
	lines := make([]string, len(pairs))
	for i, tp := range pairs {
		lines[i] = tp.StringFor(c)
	}
	return sha(lines...)
}

func coverageDigest(cov atpg.Coverage) string {
	return sha(append([]string{fmt.Sprintf("%d/%d", cov.Detected, cov.Total)}, cov.Undetected...)...)
}

func circuitFingerprint(c *logic.Circuit) (string, error) {
	fp, err := c.Fingerprint()
	if err != nil {
		return "", err
	}
	return fp.String(), nil
}

// permuted returns faults in the seeded order perm (unchanged for nil).
func permuted(faults []fault.OBD, perm []int) []fault.OBD {
	if perm == nil {
		return faults
	}
	out := make([]fault.OBD, len(perm))
	for i, j := range perm {
		out[i] = faults[j]
	}
	return out
}

func faultNames(faults []fault.OBD) []string {
	names := make([]string, len(faults))
	for i, f := range faults {
		names[i] = f.String()
	}
	return names
}

// benchInput reads a committed .bench circuit and draws `orders` seeded
// orders in which the workload lists its OBD faults (of the combinational
// core for sequential circuits). The orders are the seed's only effect on
// the c432 and s27 workloads: they change which faults PODEM targets and
// which fault dropping settles, never the verdicts.
func benchInput(path string, seed int64, orders int) (text string, perms [][]int, ins map[string]string, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", nil, nil, err
	}
	c, err := logic.ParseBenchString(string(b))
	if err != nil {
		return "", nil, nil, err
	}
	fp, err := circuitFingerprint(c)
	if err != nil {
		return "", nil, nil, err
	}
	core, err := c.CombinationalCore()
	if err != nil {
		return "", nil, nil, err
	}
	faults, _ := fault.OBDUniverse(core)
	rng := rand.New(rand.NewSource(seed))
	var names []string
	for k := 0; k < orders; k++ {
		perms = append(perms, rng.Perm(len(faults)))
		names = append(names, faultNames(permuted(faults, perms[k]))...)
	}
	ins = map[string]string{
		"circuit_fingerprint": fp,
		"fault_order_sha256":  sha(names...),
	}
	return string(b), perms, ins, nil
}

// batch holds what the batch workloads share: the digests of their
// inputs, and the instance methods most of them need only as no-ops (no
// per-op input, one op class, no probes or run-level checks, nothing to
// close). Workloads override the ones they use.
type batch struct{ ins map[string]string }

func (batch) input(int) (any, error)       { return nil, nil }
func (batch) class(int) string             { return "" }
func (batch) probe(*tracer) error          { return nil }
func (batch) finish() error                { return nil }
func (b batch) digests() map[string]string { return b.ins }
func (batch) close()                       {}

// parseStages is the traced front of every batch op: parse, then
// validate and (for combinational circuits) index.
func parseStages(tr *tracer, i, root int, parse func(string) (*logic.Circuit, error), text string) (*logic.Circuit, error) {
	var c *logic.Circuit
	err := tr.stage(i, root, "logic.parse", func() (err error) {
		c, err = parse(text)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = tr.stage(i, root, "logic.validate", func() error {
		if err := c.Validate(); err != nil {
			return err
		}
		if !c.HasDFF() {
			c.Index()
		}
		return nil
	})
	return c, err
}

func universeStage(tr *tracer, i, root int, c *logic.Circuit, perm []int) []fault.OBD {
	var faults []fault.OBD
	tr.stage(i, root, "fault.universe", func() error {
		all, _ := fault.OBDUniverse(c)
		faults = permuted(all, perm)
		return nil
	})
	tr.count(i, "fault.faults", float64(len(faults)))
	return faults
}

// ---- grade-10k ----

type gradeRun struct {
	batch
	text  string
	pairs []atpg.TwoPattern
	sched *atpg.Scheduler
	want  string // coverage digest of the first op; every later op must match it
}

func setupGrade(seed int64) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	c := logic.RandomCircuit(rng, logic.RandomOptions{Inputs: 64, Gates: 10000, Primitive: true})
	fp, err := circuitFingerprint(c)
	if err != nil {
		return nil, err
	}
	pairs := completePairs(rng, c.Inputs, 256)
	return &gradeRun{
		text:  logic.Format(c),
		pairs: pairs,
		sched: atpg.NewScheduler(1),
		batch: batch{ins: map[string]string{"circuit_fingerprint": fp, "pairs_sha256": pairsDigest(c, pairs)}},
	}, nil
}

func (g *gradeRun) op(i int, _ any, tr *tracer) error {
	var cov atpg.Coverage
	var err error
	if tr == nil {
		var c *logic.Circuit
		if c, err = logic.ParseString(g.text); err != nil {
			return err
		}
		faults, _ := fault.OBDUniverse(c)
		if cov, err = g.sched.GradeOBD(c, faults, g.pairs); err != nil {
			return err
		}
	} else if cov, err = g.tracedGrade(i, tr); err != nil {
		return err
	}
	d := coverageDigest(cov)
	if g.want == "" {
		g.want = d
		g.ins["coverage_sha256"] = d
	}
	if d != g.want {
		return fmt.Errorf("coverage %s differs from the first op's", cov)
	}
	return nil
}

// tracedGrade is GradeOBD broken into its stage calls. Its Coverage must
// equal GradeOBD's (the op's oracle compares them), so a refactor of the
// grade path fails loudly instead of reporting a stale breakdown.
func (g *gradeRun) tracedGrade(i int, tr *tracer) (atpg.Coverage, error) {
	root := tr.start(i, 0, "bench.op")
	defer tr.stop(root)
	c, err := parseStages(tr, i, root, logic.ParseString, g.text)
	if err != nil {
		return atpg.Coverage{}, err
	}
	faults := universeStage(tr, i, root, c, nil)
	var pg *atpg.PairGrader
	tr.stage(i, root, "atpg.pairgrader", func() error {
		pg = atpg.NewPairGrader(c, g.pairs)
		return nil
	})
	if !pg.Complete() {
		return atpg.Coverage{}, fmt.Errorf("pair set is not complete")
	}
	var classes [][]int
	tr.stage(i, root, "netcheck.collapse", func() error {
		classes = netcheck.CollapseOBDComplete(c, faults)
		return nil
	})
	det := make([]bool, len(faults))
	sims := 0
	tr.stage(i, root, "atpg.grade", func() error {
		for _, cl := range classes {
			idx := pg.FirstDetecting(faults[cl[0]])
			for _, fi := range cl {
				det[fi] = idx >= 0
			}
			if idx >= 0 {
				sims += idx + 1
			} else {
				sims += len(g.pairs)
			}
		}
		return nil
	})
	tr.count(i, "netcheck.collapse_classes", float64(len(classes)))
	tr.count(i, "atpg.pair_sims", float64(sims))
	cov := atpg.Coverage{Total: len(faults)}
	for fi, d := range det {
		if d {
			cov.Detected++
		} else {
			cov.Undetected = append(cov.Undetected, faults[fi].String())
		}
	}
	return cov, nil
}

// ---- atpg-c432 ----

// atpgOrders is how many seeded fault orders atpg-c432 cycles through.
// PODEM's work depends on the order (which faults fault dropping settles
// first), so one order per seed would make the seed, not the code, move
// the numbers by ±10%; eight orders per run average that out.
const atpgOrders = 8

type atpgRun struct {
	batch
	text  string
	perms [][]int // op i uses order i mod atpgOrders
	sched *atpg.Scheduler
	want  [atpgOrders]string // test-set digest of each order's first op

	// The last op's circuit, faults and tests, for the probes.
	c      *logic.Circuit
	faults []fault.OBD
	tests  []atpg.TwoPattern
}

func setupATPG(seed int64) (instance, error) {
	text, perms, ins, err := benchInput(c432Path, seed, atpgOrders)
	if err != nil {
		return nil, err
	}
	return &atpgRun{batch: batch{ins: ins}, text: text, perms: perms, sched: atpg.NewScheduler(1)}, nil
}

func (a *atpgRun) class(i int) string { return fmt.Sprintf("order-%d", i%atpgOrders) }

func (a *atpgRun) op(i int, _ any, tr *tracer) error {
	perm := a.perms[i%atpgOrders]
	var c *logic.Circuit
	var faults []fault.OBD
	var ts *atpg.TestSet
	var err error
	if tr == nil {
		if c, err = logic.ParseBenchString(a.text); err != nil {
			return err
		}
		all, _ := fault.OBDUniverse(c)
		faults = permuted(all, perm)
		if ts, err = a.sched.GenerateOBDTests(c, faults, atpg.DefaultOptions()); err != nil {
			return err
		}
	} else {
		root := tr.start(i, 0, "bench.op")
		defer tr.stop(root)
		if c, err = parseStages(tr, i, root, logic.ParseBenchString, a.text); err != nil {
			return err
		}
		faults = universeStage(tr, i, root, c, perm)
		opt := atpg.DefaultOptions()
		backtracks := 0
		opt.BacktrackSink = &backtracks
		a.sched.CollectStats = true
		a.sched.ResetStats()
		err = tr.stage(i, root, "atpg.generate", func() (err error) {
			ts, err = a.sched.GenerateOBDTests(c, faults, opt)
			return err
		})
		a.sched.CollectStats = false
		if err != nil {
			return err
		}
		for _, ws := range a.sched.Stats() {
			tr.count(i, "atpg.pair_sims", float64(ws.Pairs))
		}
		tr.count(i, "atpg.podem_backtracks", float64(backtracks))
		tr.count(i, "atpg.tests", float64(len(ts.Tests)))
	}
	var det, unt, abo int
	for _, r := range ts.Results {
		switch r.Status {
		case atpg.Detected:
			det++
		case atpg.Untestable:
			unt++
		case atpg.Aborted:
			abo++
		default:
			return fmt.Errorf("fault %s: %s: %v", r.Fault, r.Status, r.Err)
		}
	}
	if len(faults) != c432Faults || det != c432Detected || unt != c432Untestable || abo != 0 {
		return fmt.Errorf("census %d/%d/%d of %d, want %d/%d/0 of %d", det, unt, abo, len(faults), c432Detected, c432Untestable, c432Faults)
	}
	lines := make([]string, len(ts.Tests))
	for k, tp := range ts.Tests {
		lines[k] = tp.StringFor(c)
	}
	d := sha(lines...)
	want := &a.want[i%atpgOrders]
	if *want == "" {
		*want = d
	}
	if d != *want {
		return fmt.Errorf("test set of %d pairs differs from the first op's with this fault order", len(ts.Tests))
	}
	a.c, a.faults, a.tests = c, faults, ts.Tests
	return nil
}

// probe times two calls GenerateOBDTests makes internally: the SCOAP
// guidance and a grade of the final test set against the fault list.
func (a *atpgRun) probe(tr *tracer) error {
	for k := 0; k < 10; k++ {
		root := tr.start(-1, 0, "bench.probe")
		tr.stage(-1, root, "logic.scoap", func() error {
			logic.ComputeTestability(a.c)
			return nil
		})
		err := tr.stage(-1, root, "atpg.final_grade", func() error {
			cov, err := a.sched.GradeOBD(a.c, a.faults, a.tests)
			if err == nil && cov.Detected != c432Detected {
				err = fmt.Errorf("final test set detects %d faults, want %d", cov.Detected, c432Detected)
			}
			return err
		})
		tr.stop(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- prove-c432 ----

type proveRun struct {
	batch
	text string
	perm []int

	// The first op's circuit, faults and verdicts, verified once per run.
	c        *logic.Circuit
	faults   []fault.OBD
	verdicts []netcheck.ExactVerdict
}

func setupProve(seed int64) (instance, error) {
	text, perms, ins, err := benchInput(c432Path, seed, 1)
	if err != nil {
		return nil, err
	}
	return &proveRun{batch: batch{ins: ins}, text: text, perm: perms[0]}, nil
}

func (p *proveRun) op(i int, _ any, tr *tracer) error {
	var c *logic.Circuit
	var faults []fault.OBD
	var vs []netcheck.ExactVerdict
	var err error
	if tr == nil {
		if c, err = logic.ParseBenchString(p.text); err != nil {
			return err
		}
		all, _ := fault.OBDUniverse(c)
		faults = permuted(all, p.perm)
		vs = netcheck.ProveOBDExactList(c, faults, 0)
	} else {
		root := tr.start(i, 0, "bench.op")
		defer tr.stop(root)
		if c, err = parseStages(tr, i, root, logic.ParseBenchString, p.text); err != nil {
			return err
		}
		faults = universeStage(tr, i, root, c, p.perm)
		// ProveOBDExactList with no budget, one span per fault.
		vs = make([]netcheck.ExactVerdict, len(faults))
		for k, f := range faults {
			tr.stage(i, root, "netcheck.exact", func() error {
				vs[k] = netcheck.ProveOBDExact(c, f)
				return nil
			})
		}
		for _, v := range vs {
			for _, r := range v.Pairs {
				if r.PinConflict {
					tr.count(i, "sat.pin_conflicts", 1)
				} else {
					tr.count(i, "sat.unsat_frames", 1)
					tr.count(i, "sat.proof_lemmas", float64(len(r.Proof)))
				}
			}
		}
	}
	var testable, untestable, aborted int
	for _, v := range vs {
		switch {
		case v.Aborted:
			aborted++
		case v.Testable:
			testable++
		default:
			untestable++
		}
	}
	if len(faults) != c432Faults || testable != c432Detected || untestable != c432Untestable || aborted != 0 {
		return fmt.Errorf("exact census %d/%d/%d of %d, want %d/%d/0 of %d", testable, untestable, aborted, len(faults), c432Detected, c432Untestable, c432Faults)
	}
	if p.verdicts == nil {
		p.c, p.faults, p.verdicts = c, faults, vs
	}
	return nil
}

// finish replays every verdict of the first op through the independent
// checker: witnesses by simulation, refutations by RUP proof checking.
func (p *proveRun) finish() error {
	for k, v := range p.verdicts {
		if err := netcheck.VerifyExactVerdict(p.c, p.faults[k], v); err != nil {
			return err
		}
	}
	return nil
}

// ---- scan-s27 ----

// scanStyles is the style of op i: i mod 3.
var scanStyles = [...]struct {
	style    seq.Style
	detected int // of s27's 40 core faults, every verdict exact
}{
	{seq.LOC, 20},
	{seq.LOS, 25},
	{seq.Enhanced, 26},
}

const s27Faults = 40

type scanRun struct {
	batch
	text  string
	perm  []int
	sched *atpg.Scheduler
}

func setupScan(seed int64) (instance, error) {
	text, perms, ins, err := benchInput(s27Path, seed, 1)
	if err != nil {
		return nil, err
	}
	return &scanRun{batch: batch{ins: ins}, text: text, perm: perms[0], sched: atpg.NewScheduler(1)}, nil
}

func (s *scanRun) class(i int) string { return scanStyles[i%len(scanStyles)].style.String() }

func (s *scanRun) op(i int, _ any, tr *tracer) error {
	st := scanStyles[i%len(scanStyles)]
	var res *seq.Result
	var err error
	if tr == nil {
		c, err := logic.ParseBenchString(s.text)
		if err != nil {
			return err
		}
		sc, err := seq.FromCircuit(c)
		if err != nil {
			return err
		}
		all, _ := fault.OBDUniverse(sc.Core)
		if res, err = seq.GenerateTestsOn(s.sched, sc, permuted(all, s.perm), st.style, seq.DefaultOptions()); err != nil {
			return err
		}
	} else if res, err = s.tracedScan(i, tr, st.style); err != nil {
		return err
	}
	if res.Coverage.Total != s27Faults || res.Coverage.Detected != st.detected || !res.Exact {
		return fmt.Errorf("%s: %s exact=%v, want %d/%d exact", st.style, res.Coverage, res.Exact, st.detected, s27Faults)
	}
	return nil
}

func (s *scanRun) tracedScan(i int, tr *tracer, style seq.Style) (*seq.Result, error) {
	root := tr.start(i, 0, "bench.op")
	defer tr.stop(root)
	c, err := parseStages(tr, i, root, logic.ParseBenchString, s.text)
	if err != nil {
		return nil, err
	}
	var sc *seq.Circuit
	err = tr.stage(i, root, "seq.from_circuit", func() (err error) {
		sc, err = seq.FromCircuit(c)
		return err
	})
	if err != nil {
		return nil, err
	}
	faults := universeStage(tr, i, root, sc.Core, s.perm)
	var res *seq.Result
	err = tr.stage(i, root, "seq.generate", func() (err error) {
		res, err = seq.GenerateTestsOn(s.sched, sc, faults, style, seq.DefaultOptions())
		return err
	})
	return res, err
}
