// Analog layer of the public facade: the MNA + Newton-Raphson circuit
// simulator, the paper's diode-resistor OBD injection model, the
// transistor-level cell library with its measurement harnesses, and
// waveform delay extraction.
package gobd

import (
	"gobd/internal/cells"
	"gobd/internal/obd"
	"gobd/internal/spice"
	"gobd/internal/waveform"
)

// Analog simulator layer.
type (
	// AnalogCircuit is a flat transistor-level netlist.
	AnalogCircuit = spice.Circuit
	// Process is the synthetic CMOS process card.
	Process = spice.Process
	// Solution is a committed DC solution.
	Solution = spice.Solution
	// TranResult is a committed transient simulation.
	TranResult = spice.TranResult
	// Waveform drives independent sources.
	Waveform = spice.Waveform
	// MOSFET is the Level-1 transistor device.
	MOSFET = spice.MOSFET
)

// DefaultProcess returns the calibrated 3.3 V process card used by every
// experiment in the repository.
func DefaultProcess() *Process { return spice.Default350() }

// NewAnalogCircuit creates an empty analog netlist (ground pre-defined).
func NewAnalogCircuit() *AnalogCircuit { return spice.NewCircuit() }

// OperatingPoint solves the DC bias point of an analog circuit.
func OperatingPoint(c *AnalogCircuit) (*Solution, error) { return spice.OperatingPoint(c, nil) }

// Transient runs a transient analysis with the default solver options.
func Transient(c *AnalogCircuit, tstop, dt float64) (*TranResult, error) {
	return spice.Transient(c, tstop, dt, nil)
}

// AnalogNetlist renders a transistor-level circuit as SPICE-deck text.
var AnalogNetlist = spice.Netlist

// OBD model layer.
type (
	// Stage is a breakdown progression point (FaultFree … HBD).
	Stage = obd.Stage
	// Injection is a breakdown network wired around one transistor.
	Injection = obd.Injection
	// Progression is the exponential SBD→HBD parameter trajectory.
	Progression = obd.Progression
)

// Breakdown stages (the paper's Table 1 rows).
const (
	FaultFree = obd.FaultFree
	MBD1      = obd.MBD1
	MBD2      = obd.MBD2
	MBD3      = obd.MBD3
	HBD       = obd.HBD
)

// Inject attaches the diode-resistor breakdown network to a transistor.
func Inject(c *AnalogCircuit, name string, m *MOSFET, stage Stage) *Injection {
	//obdcheck:allow paniccontract — passes the documented StageParams contract through: every Stage constant above is a defined Table 1 row
	return obd.Inject(c, name, m, stage)
}

// Stages lists all breakdown stages in progression order.
func Stages() []Stage { return obd.Stages() }

// MOSPolarity distinguishes NMOS and PMOS devices.
type MOSPolarity = spice.MOSPolarity

// Device polarities.
const (
	NMOS = spice.NMOS
	PMOS = spice.PMOS
)

// NewProgression builds the default exponential SBD→HBD trajectory for a
// device polarity (27 h window, per Linder et al.).
//
//obdcheck:allow paniccontract — passes the documented StageParams contract through: the default trajectory visits only defined stages
func NewProgression(pol MOSPolarity) *Progression { return obd.NewProgression(pol) }

// Cell library layer.
type (
	// CellBuilder accumulates transistor-level cells into one circuit.
	CellBuilder = cells.Builder
	// Cell is one gate instance at transistor level.
	Cell = cells.Cell
	// NANDHarness is the paper's Fig. 5 measurement set-up.
	NANDHarness = cells.NANDHarness
	// FullAdderRig is the transistor-level Fig. 8 circuit.
	FullAdderRig = cells.FullAdderRig
)

// NewCellBuilder creates a builder with a powered supply rail.
func NewCellBuilder(p *Process) *CellBuilder { return cells.NewBuilder(p) }

// NewNANDHarness builds the Fig. 5 harness (driveChain=2 reproduces the
// paper; 0 is the ideal-source ablation).
func NewNANDHarness(p *Process, driveChain int) *NANDHarness {
	return cells.NewNANDHarness(p, driveChain)
}

// NewFullAdderRig elaborates the Fig. 8 circuit to transistors.
func NewFullAdderRig(p *Process) (*FullAdderRig, error) { return cells.NewFullAdderRig(p) }

// CalibrateDelays measures the primitive cells on the analog simulator and
// returns a gate-level delay model grounded in the same process card.
var CalibrateDelays = cells.CalibrateDelays

// Measurement layer.
type (
	// Series is a sampled waveform.
	Series = waveform.Series
	// DelayMeasurement is a measured transition (delay or sa-0/sa-1).
	DelayMeasurement = waveform.DelayMeasurement
)
