package seq

import (
	"fmt"
	"strings"

	"gobd/internal/logic"
)

// This file is the netlist-first side of the scan API: FromCircuit lifts a
// flat DFF-bearing logic.Circuit into the scan model, InputChain chains a
// DFF-free circuit's inputs into one, Insert flattens a scan model back
// into a DFF netlist, and Unroll time-frame-expands the model into one
// combinational circuit — the bridge that lets the combinational
// PairGrader/PODEM/SAT stack reason about k clock cycles without learning
// anything about state.

// FromCircuit lifts a DFF-bearing netlist into the scan model: the core is
// the circuit's CombinationalCore (flip-flop outputs appended to the
// inputs, flip-flop D nets appended to the outputs) and the chain order is
// the netlist order of the DFF gates. A circuit without flip-flops yields
// a degenerate model with an empty chain.
func FromCircuit(c *logic.Circuit) (*Circuit, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	core, err := c.CombinationalCore()
	if err != nil {
		return nil, &ChainError{Msg: fmt.Sprintf("extracting combinational core: %v", err)}
	}
	ffGates := c.DFFs()
	ffs := make([]FF, len(ffGates))
	for i, g := range ffGates {
		ffs[i] = FF{Q: g.Output, D: g.Inputs[0]}
	}
	return build(core, ffs)
}

// InputChain models a DFF-free circuit as a flat scan chain over its
// inputs: every input becomes a scan cell, chained in declaration order
// with Inputs[0] at the scan-in end, and the model has no primary inputs.
// Under LOS the second vector is then a one-bit shift of the first across
// all inputs; enhanced scan is unconstrained. Each cell's D is its own Q,
// so a capture holds the state and LOC launches nothing. A DFF-bearing
// circuit yields a *ChainError: lift it with FromCircuit instead.
func InputChain(c *logic.Circuit) (*Circuit, error) {
	if ffs := c.DFFs(); len(ffs) > 0 {
		return nil, &ChainError{Msg: fmt.Sprintf("input chain over a circuit holding %d flip-flops; lift it with FromCircuit", len(ffs))}
	}
	ffs := make([]FF, len(c.Inputs))
	for i, in := range c.Inputs {
		ffs[i] = FF{Q: in, D: in}
	}
	return build(c, ffs)
}

// Insert stitches an explicit scan chain back into a flat netlist: every
// FF becomes a DFF gate driving its Q net from its D net, Q nets leave the
// input list, and D nets leave the output list (they are observable
// through the chain, not as primary outputs). It is the inverse of
// FromCircuit up to gate order: FromCircuit(Insert(core, ffs)) rebuilds an
// equivalent model, and for circuits whose D nets were not also primary
// outputs the flat forms have identical fingerprints.
func Insert(core *logic.Circuit, ffs []FF) (*logic.Circuit, error) {
	if _, err := build(core, ffs); err != nil {
		return nil, err
	}
	isQ := make(map[string]bool, len(ffs))
	isD := make(map[string]bool, len(ffs))
	for _, ff := range ffs {
		isQ[ff.Q] = true
		isD[ff.D] = true
	}
	flat := logic.New(strings.TrimSuffix(core.Name, "_core"))
	for _, in := range core.Inputs {
		if isQ[in] {
			continue
		}
		if err := flat.AddInput(in); err != nil {
			return nil, &ChainError{Msg: fmt.Sprintf("inserting chain: %v", err)}
		}
	}
	for _, g := range core.Gates {
		if _, err := flat.AddGate(g.Name, g.Type, g.Output, g.Inputs...); err != nil {
			return nil, &ChainError{Msg: fmt.Sprintf("inserting chain: %v", err)}
		}
	}
	for _, ff := range ffs {
		if _, err := flat.AddGate(ff.Q, logic.Dff, ff.Q, ff.D); err != nil {
			return nil, &ChainError{Msg: fmt.Sprintf("inserting flip-flop %q: %v", ff.Q, err)}
		}
	}
	for _, out := range core.Outputs {
		if !isD[out] {
			flat.AddOutput(out)
		}
	}
	if err := flat.Validate(); err != nil {
		return nil, &ChainError{Msg: fmt.Sprintf("inserted netlist does not validate: %v", err)}
	}
	return flat, nil
}

// FrameError is a typed Unroll failure: the frame count is out of range.
type FrameError struct{ Frames int }

func (e *FrameError) Error() string {
	return fmt.Sprintf("seq: cannot unroll %d frames (want >= 1)", e.Frames)
}

// FrameNet names a core net's copy in one time frame of an unrolled
// circuit: net "x" in frame 2 is "x@2".
func FrameNet(net string, frame int) string {
	return fmt.Sprintf("%s@%d", net, frame)
}

// UnrolledNet maps a core net reference in frame t to the net that
// carries its value in an Unroll expansion: flip-flop Q nets chase the
// chain backwards into the driving frame's D net (bottoming out at the
// frame-1 state inputs), everything else is the frame-local FrameNet
// copy. Frame frames+1 resolves the state captured after the last frame.
func UnrolledNet(s *Circuit, net string, frame int) string {
	for {
		i, isQ := -1, false
		for j, ff := range s.FFs {
			if ff.Q == net {
				i, isQ = j, true
				break
			}
		}
		if !isQ {
			return FrameNet(net, frame)
		}
		if frame == 1 {
			return FrameNet(net, 1)
		}
		net, frame = s.FFs[i].D, frame-1
	}
}

// Unroll compiles k time frames of the sequential circuit into one
// combinational circuit. The inputs are the frame-1 state (each flip-flop
// Q as FrameNet(q, 1), in chain order within the core's input order)
// followed by each frame's primary inputs; flip-flop boundaries between
// frames are cut by net substitution, so frame t reads frame t-1's D nets
// directly and no extra gates are introduced (the OBD fault universe per
// frame equals the core's). The outputs are every frame's primary outputs
// plus the final next-state nets (frame k's D images) — exactly the
// observability of scan capture after k cycles. Grading a pair on
// Unroll(s, 2) therefore equals two-frame simulation of the sequential
// machine.
func Unroll(s *Circuit, frames int) (*logic.Circuit, error) {
	if frames < 1 {
		return nil, &FrameError{Frames: frames}
	}
	qIdx := make(map[string]int, len(s.FFs))
	for i, ff := range s.FFs {
		qIdx[ff.Q] = i
	}
	// resolve is UnrolledNet: Q references chase the chain backwards into
	// the driving frame, everything else is the frame-local copy.
	resolve := func(net string, t int) string { return UnrolledNet(s, net, t) }
	u := logic.New(fmt.Sprintf("%s_x%d", strings.TrimSuffix(s.Core.Name, "_core"), frames))
	for _, in := range s.Core.Inputs {
		if _, isQ := qIdx[in]; isQ {
			if err := u.AddInput(FrameNet(in, 1)); err != nil {
				return nil, &ChainError{Msg: fmt.Sprintf("unrolling: %v", err)}
			}
		}
	}
	for t := 1; t <= frames; t++ {
		for _, in := range s.PIs {
			if err := u.AddInput(FrameNet(in, t)); err != nil {
				return nil, &ChainError{Msg: fmt.Sprintf("unrolling: %v", err)}
			}
		}
	}
	for t := 1; t <= frames; t++ {
		for _, g := range s.Core.Gates {
			out := FrameNet(g.Output, t)
			ins := make([]string, len(g.Inputs))
			for i, in := range g.Inputs {
				ins[i] = resolve(in, t)
			}
			if _, err := u.AddGate(out, g.Type, out, ins...); err != nil {
				return nil, &ChainError{Msg: fmt.Sprintf("unrolling frame %d: %v", t, err)}
			}
		}
	}
	for t := 1; t <= frames; t++ {
		for _, po := range s.POs {
			u.AddOutput(resolve(po, t))
		}
	}
	for _, ff := range s.FFs {
		// The state captured after frame `frames`: the chain image of Q in
		// a hypothetical frame frames+1.
		u.AddOutput(resolve(ff.Q, frames+1))
	}
	if err := u.Validate(); err != nil {
		return nil, &ChainError{Msg: fmt.Sprintf("unrolled circuit does not validate: %v", err)}
	}
	return u, nil
}
