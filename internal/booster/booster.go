package booster

import "fastflex/internal/dataplane"

// Defense modes of the LFA case study and the DDoS example. Modes are
// cumulative and co-exist in a switch's mode set: detection is part of the
// always-on default mode; an alarm activates ModeReroute; escalation adds
// ModeMitigate (pin normal flows, obfuscate, drop); volumetric attacks
// activate ModeDDoS independently of the LFA modes.
const (
	ModeDefault  dataplane.ModeID = 0
	ModeReroute  dataplane.ModeID = 1
	ModeMitigate dataplane.ModeID = 2
	ModeDDoS     dataplane.ModeID = 3
)

// Suspicion levels written into packet tags by detectors.
const (
	// SuspicionNone marks clean traffic.
	SuspicionNone uint8 = 0
	// SuspicionLow marks flows matching the attack pattern: rerouted and
	// obfuscated, but not dropped (conservative, per §4.1).
	SuspicionLow uint8 = 1
	// SuspicionHigh marks the most suspicious flows: dropped to create
	// the "illusion of success" (§4.2 step 5).
	SuspicionHigh uint8 = 2
)

// AttackClass labels what a detector believes it is seeing.
type AttackClass uint8

// Attack classes raised by the detectors in this package.
const (
	AttackLFA AttackClass = iota + 1
	AttackVolumetric
)

func (a AttackClass) String() string {
	switch a {
	case AttackLFA:
		return "link-flooding"
	case AttackVolumetric:
		return "volumetric-ddos"
	}
	return "unknown"
}

// Alarm is a detector's report: an attack class appearing (Active) or
// subsiding (!Active).
type Alarm struct {
	Class  AttackClass
	Active bool
}

// AlarmFunc receives alarms during packet processing. The mode-change
// protocol (internal/mode) is the usual sink: it converts alarms into
// mode-change probes emitted through the same pipeline context.
type AlarmFunc func(ctx *dataplane.Context, a Alarm)
