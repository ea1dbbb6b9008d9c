package exper

import (
	"fmt"
	"math/rand"
	"strings"

	"gobd/internal/atpg"
	"gobd/internal/cells"
	"gobd/internal/fault"
	"gobd/internal/logic"
	"gobd/internal/obd"
	"gobd/internal/spice"
	"gobd/internal/timing"
	"gobd/internal/waveform"
)

// ConcurrentStrategy is one online-detection policy evaluated over the
// defect's lifetime.
type ConcurrentStrategy struct {
	Name        string
	DetectHour  float64 // -1 when the defect reaches HBD undetected
	Remaining   float64 // hours left for diagnose/repair before HBD
	TestsIssued int
}

// ConcurrentSim is the paper's title scenario end to end: a single OBD
// defect progresses from SBD to HBD over ~27 hours while the system
// operates; different concurrent-testing policies race to catch it before
// hard breakdown. The defect's per-hour delay penalty comes from the
// analog characterization of the progression trajectory; detection is
// evaluated with the event-driven timing simulator at a realistic capture
// time.
type ConcurrentSim struct {
	FaultName  string
	HBDHour    float64
	Curve      []WindowSample // analog-characterized delay along the lifetime
	Nominal    float64
	Strategies []ConcurrentStrategy
}

// RunConcurrentSim simulates the policies against an NMOS OBD in the full
// adder's mid-path NAND.
func RunConcurrentSim(p *spice.Process) (*ConcurrentSim, error) {
	prog := obd.NewProgression(spice.NMOS)
	out := &ConcurrentSim{HBDHour: prog.Window / 3600}

	// Analog characterization of the defect's extra delay over time.
	h := cells.NewNANDHarness(p, 2)
	inj := obd.Inject(h.B.C, "f", h.FETFor(fault.PullDown, 0), obd.FaultFree)
	pr, err := fault.ParsePair("(01,11)")
	if err != nil {
		return nil, err
	}
	measure := func() (waveform.DelayMeasurement, error) {
		h.Apply(pr, TSwitch, TEdge)
		res, err := h.Run(TStop, TStep)
		if err != nil {
			return waveform.DelayMeasurement{}, err
		}
		return h.Measure(res, pr, TSwitch, TEdge)
	}
	nominal, err := measure()
	if err != nil {
		return nil, err
	}
	if nominal.Kind != waveform.TransitionOK {
		return nil, fmt.Errorf("exper: concurrent baseline stuck")
	}
	out.Nominal = nominal.Delay
	const points = 10
	for i := 0; i < points; i++ {
		t := prog.Window * float64(i) / float64(points-1)
		par := prog.ParamsAt(t)
		inj.SetParams(par)
		m, err := measure()
		if err != nil {
			return nil, err
		}
		out.Curve = append(out.Curve, WindowSample{T: t, Meas: m, Param: par})
	}

	// The monitored defect at gate level.
	lc := cells.FullAdderSumLogic()
	var target *logic.Gate
	for _, g := range lc.Gates {
		if g.Name == cells.FullAdderTarget {
			target = g
		}
	}
	fl := fault.OBD{Gate: target, Input: 0, Side: fault.PullDown}
	out.FaultName = fl.String()
	dm, err := cells.CalibrateDelays(p)
	if err != nil {
		return nil, err
	}
	sim, err := timing.New(lc, dm)
	if err != nil {
		return nil, err
	}

	// The BIST test set and its designed capture time.
	faults, _ := fault.OBDUniverse(lc)
	ts, err := atpg.NewScheduler(0).GenerateOBDTests(lc, faults, nil)
	if err != nil {
		return nil, err
	}
	critical := 0.0
	goodTraces := make([]*timing.Trace, len(ts.Tests))
	for i, tp := range ts.Tests {
		tr, err := sim.Run(tp.V1, tp.V2, nil)
		if err != nil {
			return nil, err
		}
		goodTraces[i] = tr
		if t := tr.SettleTime(); t > critical {
			critical = t
		}
	}

	// penaltyAt interpolates the analog curve; (extra delay, stuck).
	penaltyAt := func(hour float64) (float64, bool) {
		tsec := hour * 3600
		base := out.Nominal
		var prev WindowSample
		for i, s := range out.Curve {
			if s.T >= tsec || i == len(out.Curve)-1 {
				if s.Meas.Kind != waveform.TransitionOK {
					if i == 0 || prev.Meas.Kind != waveform.TransitionOK {
						return 0, true
					}
					// Between a delayed and a stuck sample: treat as stuck
					// past the midpoint.
					if tsec > (prev.T+s.T)/2 {
						return 0, true
					}
					return prev.Meas.Delay - base, false
				}
				if i == 0 {
					return s.Meas.Delay - base, false
				}
				if prev.Meas.Kind != waveform.TransitionOK {
					return s.Meas.Delay - base, false
				}
				f := (tsec - prev.T) / (s.T - prev.T)
				d := prev.Meas.Delay + f*(s.Meas.Delay-prev.Meas.Delay)
				return d - base, false
			}
			prev = s
		}
		return 0, true
	}

	detects := func(tp atpg.TwoPattern, good *timing.Trace, hour, capture float64) (bool, error) {
		extra, stuck := penaltyAt(hour)
		pen := timing.Penalty{GateName: fl.Gate.Name, Rising: fl.SlowRising(), Extra: extra, Stuck: stuck}
		faulty, err := sim.Run(tp.V1, tp.V2, []timing.Penalty{pen})
		if err != nil {
			return false, err
		}
		return timing.DetectsAt(lc, good, faulty, capture), nil
	}

	// Periodic BIST policies: run the whole test set every T hours with
	// capture at the designed clock (1.0× critical path).
	for _, period := range []float64{2, 6, 12} {
		st := ConcurrentStrategy{Name: fmt.Sprintf("BIST every %2.0f h", period), DetectHour: -1}
		for hour := period; hour < out.HBDHour; hour += period {
			st.TestsIssued += len(ts.Tests)
			hit := false
			for i, tp := range ts.Tests {
				ok, err := detects(tp, goodTraces[i], hour, critical)
				if err != nil {
					return nil, err
				}
				if ok {
					hit = true
					break
				}
			}
			if hit {
				st.DetectHour = hour
				st.Remaining = out.HBDHour - hour
				break
			}
		}
		out.Strategies = append(out.Strategies, st)
	}

	// Functional workload policy: a duplicate-and-compare checker samples
	// K random consecutive vector pairs per hour at the functional clock.
	rng := rand.New(rand.NewSource(11))
	mk := func() atpg.Pattern {
		pt := make(atpg.Pattern, len(lc.Inputs))
		for _, in := range lc.Inputs {
			pt[in] = logic.FromBool(rng.Intn(2) == 1)
		}
		return pt
	}
	st := ConcurrentStrategy{Name: "workload checker", DetectHour: -1}
	const samplesPerHour = 40
	prevVec := mk()
	for hour := 1.0; hour < out.HBDHour; hour++ {
		hit := false
		for k := 0; k < samplesPerHour; k++ {
			v2 := mk()
			tp := atpg.TwoPattern{V1: prevVec, V2: v2}
			prevVec = v2
			st.TestsIssued++
			good, err := sim.Run(tp.V1, tp.V2, nil)
			if err != nil {
				return nil, err
			}
			ok, err := detects(tp, good, hour, critical)
			if err != nil {
				return nil, err
			}
			if ok {
				hit = true
				break
			}
		}
		if hit {
			st.DetectHour = hour
			st.Remaining = out.HBDHour - hour
			break
		}
	}
	out.Strategies = append(out.Strategies, st)
	return out, nil
}

// Format prints the race results.
func (c *ConcurrentSim) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concurrent testing race: %s progressing to HBD at %.1f h (nominal %.0f ps)\n",
		c.FaultName, c.HBDHour, c.Nominal*1e12)
	for _, s := range c.Strategies {
		if s.DetectHour < 0 {
			fmt.Fprintf(&b, "  %-18s NOT detected before HBD (%d vectors applied)\n", s.Name, s.TestsIssued)
			continue
		}
		fmt.Fprintf(&b, "  %-18s detected at %5.1f h, %5.1f h left to repair (%d vectors applied)\n",
			s.Name, s.DetectHour, s.Remaining, s.TestsIssued)
	}
	return b.String()
}

// Check verifies: every periodic BIST policy catches the defect before
// HBD; shorter periods never detect later (the schedules are nested); and
// detection leaves a positive repair margin for the tightest policy.
func (c *ConcurrentSim) Check() []string {
	var bad []string
	prev := -1.0
	for _, s := range c.Strategies {
		if !strings.HasPrefix(s.Name, "BIST") {
			continue
		}
		if s.DetectHour < 0 {
			bad = append(bad, s.Name+" missed the defect entirely")
			continue
		}
		if prev >= 0 && s.DetectHour < prev {
			bad = append(bad, s.Name+" detected earlier than a tighter schedule")
		}
		prev = s.DetectHour
	}
	if len(c.Strategies) > 0 {
		first := c.Strategies[0]
		if first.DetectHour >= 0 && first.Remaining <= 0 {
			bad = append(bad, "tightest policy left no repair margin")
		}
	}
	return bad
}
