// Fault layer of the public facade: the per-transistor OBD model with its
// series-parallel excitation rule, the classical stuck-at/transition/EM
// universes, response-signature diagnosis and LFSR/MISR self-test.
package gobd

import (
	"gobd/internal/bist"
	"gobd/internal/diag"
	"gobd/internal/fault"
)

// Fault model layer.
type (
	// OBDFault is a per-transistor gate-oxide-breakdown fault.
	OBDFault = fault.OBD
	// StuckAtFault is the classical stuck-at fault.
	StuckAtFault = fault.StuckAt
	// TransitionFault is the classical slow-to-rise/fall fault.
	TransitionFault = fault.Transition
	// EMFault is an intra-gate electromigration fault.
	EMFault = fault.EM
	// Pair is a two-pattern local input assignment, e.g. (01,11).
	Pair = fault.Pair
	// Side distinguishes pull-up (PMOS) and pull-down (NMOS) networks.
	Side = fault.Side
)

// Network sides.
const (
	PullUp   = fault.PullUp
	PullDown = fault.PullDown
)

// Fault-universe generators and the Section 4.1/5 analyses.
var (
	// OBDUniverse enumerates all per-transistor OBD faults of a circuit.
	OBDUniverse = fault.OBDUniverse
	// StuckAtUniverse enumerates stuck-at faults on every net.
	StuckAtUniverse = fault.StuckAtUniverse
	// TransitionUniverse enumerates transition faults on every net.
	TransitionUniverse = fault.TransitionUniverse
	// ParsePair parses the paper's pair notation, e.g. "(11,01)".
	ParsePair = fault.ParsePair
	// GatePairTable maps each OBD fault of a gate type to its pairs.
	GatePairTable = fault.GatePairTable
	// MinimalPairCover computes the exact minimum exciting pair set.
	MinimalPairCover = fault.MinimalPairCover
)

// Diagnosis layer.
type (
	// FaultDictionary maps test-set responses back to candidate defects.
	FaultDictionary = diag.Dictionary
	// FaultResponse is a pass/fail observation of a test set.
	FaultResponse = diag.Response
)

// Diagnosis constructors.
var (
	// NewFaultDictionary simulates every fault against a test set.
	NewFaultDictionary = diag.Build
	// SimulateResponse computes one fault's response signature.
	SimulateResponse = diag.SimulateResponse
)

// BIST layer.
type (
	// BISTSession is an LFSR test-per-clock self-test run with MISR
	// signature compaction.
	BISTSession = bist.Session
	// LFSR is a maximal-length Galois linear-feedback shift register.
	LFSR = bist.LFSR
	// MISR is a multiple-input signature register.
	MISR = bist.MISR
)

// BIST constructors.
var (
	// NewBISTSession prepares an n-clock self-test session.
	NewBISTSession = bist.NewSession
	// NewLFSR builds a maximal-length LFSR (widths 2–16).
	NewLFSR = bist.NewLFSR
	// NewMISR builds a signature register (widths 2–16).
	NewMISR = bist.NewMISR
)
