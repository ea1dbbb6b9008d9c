// Sequential/DFT layer of the public facade: scan models lifted out of
// DFF-bearing netlists, scan-chain insertion back into flat netlists,
// time-frame unrolling into combinational equivalents, and the
// style-parameterized two-pattern generators (enhanced scan,
// launch-on-shift, launch-on-capture). The gate-level DFF primitive
// itself lives in the Circuit type (gobd_logic.go).
package gobd

import (
	"gobd/internal/seq"
)

// Sequential/DFT layer.
type (
	// SeqCircuit is a combinational core with a scan chain.
	SeqCircuit = seq.Circuit
	// ScanFF is one scan flip-flop (Q feeds a core input, D captures a net).
	ScanFF = seq.FF
	// ScanStyle is a two-pattern test-application style: how the second
	// vector of a pair may be produced by the scan hardware.
	ScanStyle = seq.Style
	// ScanOptions is the one knob set shared by every style's generator.
	ScanOptions = seq.Options
	// ScanResult is the outcome of a batch sequential generation run.
	ScanResult = seq.Result
	// ScanState is one present-state assignment of a scan chain.
	ScanState = seq.State
)

// Scan application styles.
const (
	// EnhancedScanStyle applies arbitrary vector pairs (hold-scan cells).
	EnhancedScanStyle = seq.Enhanced
	// LOSStyle launches the second vector by a one-bit chain shift.
	LOSStyle = seq.LOS
	// LOCStyle launches the second vector through the circuit's own
	// next-state logic (broadside).
	LOCStyle = seq.LOC
)

// Sequential constructors and generators.
var (
	// ScanFromCircuit lifts a DFF-bearing gate-level netlist into its scan
	// model: the combinational core plus the flip-flop chain in canonical
	// (gate declaration) order.
	ScanFromCircuit = seq.FromCircuit
	// ScanInsert stitches a scan model back into one flat DFF-bearing
	// netlist — the inverse of ScanFromCircuit.
	ScanInsert = seq.Insert
	// ScanUnroll compiles k time frames of a scan model into one
	// combinational circuit the combinational graders and provers run on
	// unchanged.
	ScanUnroll = seq.Unroll
	// ParseScanStyle resolves a style name ("enhanced", "los", "loc" or
	// the long forms) to its ScanStyle.
	ParseScanStyle = seq.ParseStyle
	// DefaultScanOptions returns the generator settings used by the
	// experiments.
	DefaultScanOptions = seq.DefaultOptions
	// GenerateScanTest searches one style's pair space for a two-pattern
	// test of a single core OBD fault.
	GenerateScanTest = seq.Generate
	// GenerateScanTests runs a style's generator over a fault list across
	// the given scheduler's pool (bit-identical for any worker count; nil
	// runs a GOMAXPROCS-sized pool).
	GenerateScanTests = seq.GenerateTestsOn
	// Accumulator builds the n-bit accumulator testbed.
	Accumulator = seq.Accumulator
)
