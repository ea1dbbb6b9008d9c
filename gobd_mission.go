// Mission layer of the public facade: the Section 4.2 detection-window
// scheduler and the seeded discrete-event mission campaign (the
// concurrent test/diagnose/repair loop under injected adversity behind
// cmd/obdmission and the /v1/mission endpoint).
package gobd

import (
	"gobd/internal/mission"
	"gobd/internal/sched"
)

// Scheduling layer (Section 4.2).
type (
	// DelayPoint is one sample of a delay-versus-time trajectory.
	DelayPoint = sched.DelayPoint
	// Window is a detection window for one detector slack.
	Window = sched.Window
)

// ComputeWindow locates the detection window for a given slack.
var ComputeWindow = sched.ComputeWindow

// Mission layer (cmd/obdmission front-end): a deterministic, seeded
// discrete-event simulation of a chip population running the paper's
// concurrent test/diagnose/repair loop under injected adversity.
type (
	// MissionConfig parameterizes a campaign.
	MissionConfig = mission.Config
	// MissionCampaign is a configured, reusable campaign.
	MissionCampaign = mission.Campaign
	// MissionAdversity is the operational hazard profile.
	MissionAdversity = mission.Adversity
	// MissionReport is the aggregated campaign outcome.
	MissionReport = mission.Report
	// MissionChipResult is one chip's outcome.
	MissionChipResult = mission.ChipResult
)

// Mission constructors and profiles.
var (
	// NewMissionCampaign validates a config and precomputes the shared
	// bench.
	NewMissionCampaign = mission.New
	// ParseAdversity parses "off", "light", "heavy" or a key=value list.
	ParseAdversity = mission.ParseAdversity
	// AdversityOff/Light/Heavy are the canned hazard profiles.
	AdversityOff   = mission.Off
	AdversityLight = mission.Light
	AdversityHeavy = mission.Heavy
)
