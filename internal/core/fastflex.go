package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"fastflex/internal/booster"
	"fastflex/internal/control"
	"fastflex/internal/dataplane"
	"fastflex/internal/eventsim"
	"fastflex/internal/mode"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/place"
	"fastflex/internal/ppm"
	"fastflex/internal/state"
	"fastflex/internal/topo"
)

// Config assembles a fabric. The zero value plus a topology is a working
// LFA-defense deployment; fields override individual subsystems.
type Config struct {
	// Net configures the underlying simulator.
	Net netsim.Config
	// Protected is the victim prefix the LFA detector guards.
	Protected []packet.Addr
	// Region assigns switches to mode regions; nil puts everything in
	// region 1.
	Region func(topo.NodeID) uint16

	// Booster configurations.
	LFA       booster.LFAConfig
	Reroute   booster.RerouteConfig
	Dropper   booster.DropperConfig
	Obfuscate booster.ObfuscateConfig
	HH        booster.HHConfig
	Mode      mode.Config

	// Feature switches (ablations).
	EnableHeavyHitter  bool // volumetric DDoS detection (off in pure LFA scenarios)
	DisableObfuscation bool
	DisableDropper     bool
	DisableReroute     bool
	NoSharing          bool // ablation A2: merge without PPM sharing
	Policy             place.Policy

	// DefenseOff builds the fabric with routing only — the substrate for
	// baseline runs.
	DefenseOff bool
}

// Fabric is a deployed FastFlex network.
type Fabric struct {
	Net *netsim.Network
	TE  *control.TEController
	Cfg Config

	Merged    *ppm.Merged
	Placement *place.Placement

	Controllers map[topo.NodeID]*mode.Controller
	Detectors   map[topo.NodeID]*booster.LFADetector
	Reroutes    map[topo.NodeID]*booster.Reroute
	Droppers    map[topo.NodeID]*booster.Dropper
	Obfuscators map[topo.NodeID]*booster.Obfuscator
	HeavyHit    map[topo.NodeID]*booster.HeavyHitter
	Receivers   map[topo.NodeID]*state.Receiver

	Scaler *state.Repurposer

	// modeLog records applied mode transitions per switch, indexed densely
	// by node ID. Each switch's OnChange hook appends only to its own
	// element — a distinct memory word per switch, so under the sharded
	// engine concurrent shards never touch shared state (a map would race
	// on its internal buckets even with distinct keys); the ModeEvents
	// accessor merges the logs into one (At, Switch)-ordered view.
	modeLog [][]ModeEvent

	// heartbeat is the telemetry ticker New arms (nil for DefenseOff
	// fabrics, which have none); Reset re-arms it.
	heartbeat *eventsim.Ticker
	// buildEpochs snapshots each switch's install epoch (in G.Switches()
	// order) when New finishes. Reset refuses fabrics whose program sets
	// changed since — it can rewind run state, not reconfiguration.
	buildEpochs []uint64
	// buildFIBs snapshots each switch router's FIB mutation version (same
	// order) after New's route install. Reset skips the clear-and-reinstall
	// for a run that never touched the FIBs — the tables still hold exactly
	// the deterministic static install, so skipping is byte-identical.
	buildFIBs []uint64
}

// ModeEvent is one applied mode transition at one switch.
type ModeEvent struct {
	At     time.Duration
	Switch topo.NodeID
	Mode   dataplane.ModeID
	Active bool
}

// ModeEvents returns every applied mode transition network-wide, merged
// across the per-switch logs and ordered by (At, Switch). The order is
// independent of both map iteration and the shard count the run used.
func (f *Fabric) ModeEvents() []ModeEvent {
	var out []ModeEvent
	for _, evs := range f.modeLog {
		out = append(out, evs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Switch < out[j].Switch
	})
	return out
}

// New deploys a fabric on the topology: Figure 1 steps (a)–(c) plus
// runtime wiring. The default TE configuration is installed; Run starts
// the clock.
func New(g *topo.Graph, cfg Config) (*Fabric, error) {
	if cfg.Region == nil {
		cfg.Region = func(topo.NodeID) uint16 { return 1 }
	}
	n := netsim.New(g, cfg.Net)
	f := &Fabric{
		Net:         n,
		Cfg:         cfg,
		Controllers: make(map[topo.NodeID]*mode.Controller),
		Detectors:   make(map[topo.NodeID]*booster.LFADetector),
		Reroutes:    make(map[topo.NodeID]*booster.Reroute),
		Droppers:    make(map[topo.NodeID]*booster.Dropper),
		Obfuscators: make(map[topo.NodeID]*booster.Obfuscator),
		HeavyHit:    make(map[topo.NodeID]*booster.HeavyHitter),
		Receivers:   make(map[topo.NodeID]*state.Receiver),
		modeLog:     make([][]ModeEvent, len(g.Nodes)),
	}
	// Stable-mode TE (centralized, computed once up front).
	f.TE = control.NewTEController(n, control.Config{})
	f.TE.InstallStatic()
	state.RouterRoutesForSwitches(n)
	f.Scaler = state.NewRepurposer(n)

	if cfg.DefenseOff {
		f.snapshotBuildEpochs()
		return f, nil
	}

	// (a)+(b): analyze boosters and merge shared PPMs.
	merged, err := ppm.Merge(ppm.StandardBoosters(), !cfg.NoSharing)
	if err != nil {
		return nil, err
	}
	f.Merged = merged

	// (c): schedule the merged graph over the default traffic paths, and
	// prove the result resource-sound before installing anything.
	paths := defaultPaths(g)
	budget := place.UniformBudget(g, remainingBudget())
	scheduleIn := place.Input{
		G: g, Merged: merged, Budget: budget, Paths: paths, Policy: cfg.Policy,
	}
	placement, err := place.Schedule(scheduleIn)
	if err != nil {
		return nil, err
	}
	if err := place.Verify(scheduleIn, placement); err != nil {
		return nil, fmt.Errorf("core: placement failed verification: %w", err)
	}
	f.Placement = placement

	// Runtime wiring: controllers and receivers everywhere, executable
	// boosters where the scheduler placed their lead modules.
	for _, sw := range g.Switches() {
		if err := f.installControl(sw); err != nil {
			return nil, err
		}
	}
	if err := f.installBoosters(); err != nil {
		return nil, err
	}
	// Telemetry heartbeat: a self-addressed probe per switch per period,
	// so time-gated PPM logic (detector epochs, alarm clears) advances
	// even on switches that momentarily carry no traffic. This models the
	// switch-local timers real hardware drives register evaluation with.
	f.heartbeat = eventsim.NewTicker(n.Eng, n.Owner(netsim.SiteHeartbeat), 100*time.Millisecond, func() {
		for _, sw := range g.Switches() {
			hb := n.PoolAt(sw).GetProbe()
			hb.Src, hb.Dst, hb.TTL = packet.RouterAddr(int(sw)), packet.RouterAddr(int(sw)), 2
			hb.Probe.Kind, hb.Probe.Origin, hb.Probe.DstSwitch = packet.ProbeUtil, hb.Src, uint16(sw)
			n.OriginateAt(sw, hb)
		}
	})
	f.snapshotBuildEpochs()
	return f, nil
}

// remainingBudget is the per-switch budget left for boosters after the
// always-on base programs (router, mode controller, state receiver).
func remainingBudget() dataplane.Resources {
	b := dataplane.TofinoLike()
	base := dataplane.NewRouter(0).Resources().
		Add((&state.Receiver{}).Resources()).
		Add(dataplane.Resources{Stages: 1, SRAMKB: 32, TCAM: 4, ALUs: 1}) // mode controller
	return b.Sub(base)
}

func defaultPaths(g *topo.Graph) []topo.Path {
	var paths []topo.Path
	hosts := g.Hosts()
	for _, a := range hosts {
		tree := g.ShortestPathTree(a, nil)
		for _, b := range hosts {
			if a == b {
				continue
			}
			if p, ok := tree.PathTo(b); ok {
				paths = append(paths, p)
			}
		}
	}
	return paths
}

func (f *Fabric) installControl(sw topo.NodeID) error {
	s := f.Net.Switch(sw)
	mc := f.Cfg.Mode
	mc.Region = f.Cfg.Region(sw)
	reassert := f.Cfg.LFA.ReassertEvery
	if reassert == 0 {
		reassert = 500 * time.Millisecond
	}
	if mc.MinDwell == 0 {
		// Dwell must exceed the detectors' re-assertion period so that a
		// premature clear from one detector cannot flap modes that other
		// detectors keep asserting.
		mc.MinDwell = 3 * reassert
	}
	if mc.SoftTTL == 0 {
		// Modes are leases: if every detector stops re-asserting, they
		// expire on their own even if explicit clears were suppressed.
		mc.SoftTTL = 6 * reassert
	}
	ctrl := mode.NewController(sw, s.SetMode, s.SeenProbe, mc)
	ctrl.OnChange = func(m dataplane.ModeID, active bool, now time.Duration) {
		f.modeLog[sw] = append(f.modeLog[sw], ModeEvent{At: now, Switch: sw, Mode: m, Active: active})
	}
	f.Controllers[sw] = ctrl
	if err := s.Install(dataplane.Program{PPM: ctrl, Priority: dataplane.PriControl, Modes: 1}); err != nil {
		return err
	}
	recv := state.NewReceiver(sw, state.FECConfig{Parity: true})
	f.Receivers[sw] = recv
	return s.Install(dataplane.Program{PPM: recv, Priority: dataplane.PriControl + 1, Modes: 1})
}

// switchesFor returns the switches hosting the named lead module.
func (f *Fabric) switchesFor(lead string) []topo.NodeID {
	for mi, m := range f.Merged.Modules {
		for _, owner := range m.Owners {
			if owner == lead {
				return f.Placement.ByModule[mi]
			}
		}
	}
	return nil
}

func (f *Fabric) installBoosters() error {
	g := f.Net.G

	lfaEnt := catalogEntry("lfa-detect")
	for _, sw := range f.switchesFor(lfaEnt.Lead) {
		sw := sw
		lfaCfg := f.Cfg.LFA
		lfaCfg.Protected = f.Cfg.Protected
		if lfaCfg.ExternalEvidence == nil {
			// Co-located mitigation activity is evidence the attack is
			// ongoing even while links are calm (the dropper absorbs it).
			lfaCfg.ExternalEvidence = func() uint64 {
				if dr := f.Droppers[sw]; dr != nil {
					return dr.DroppedHigh
				}
				return 0
			}
		}
		det := booster.NewLFADetector(sw, f.Net.SwitchLinks(sw), f.Net.LinkLoad, lfaCfg)
		det.Alarm = f.lfaAlarm(sw)
		f.Detectors[sw] = det
		if err := f.Net.Switch(sw).Install(dataplane.Program{
			PPM: det, Priority: lfaEnt.Priority, Modes: gateFor(lfaEnt),
		}); err != nil {
			return fmt.Errorf("core: installing LFA detector: %w", err)
		}
	}
	if f.Cfg.EnableHeavyHitter {
		ent := catalogEntry("heavyhitter")
		for _, sw := range f.switchesFor(ent.Lead) {
			sw := sw
			hh := booster.NewHeavyHitter(sw, f.Cfg.HH)
			hh.Alarm = f.hhAlarm(sw)
			f.HeavyHit[sw] = hh
			if err := f.Net.Switch(sw).Install(dataplane.Program{
				PPM: hh, Priority: ent.Priority, Modes: gateFor(ent),
			}); err != nil {
				return fmt.Errorf("core: installing heavy hitter: %w", err)
			}
		}
	}
	if !f.Cfg.DisableObfuscation {
		ent := catalogEntry("obfuscate")
		for _, sw := range f.switchesFor(ent.Lead) {
			obf := booster.NewObfuscator(sw, f.Cfg.Obfuscate)
			f.Obfuscators[sw] = obf
			if err := f.Net.Switch(sw).Install(dataplane.Program{
				PPM: obf, Priority: ent.Priority, Modes: gateFor(ent),
			}); err != nil {
				return fmt.Errorf("core: installing obfuscator: %w", err)
			}
		}
	}
	if !f.Cfg.DisableReroute {
		ent := catalogEntry("reroute")
		for _, sw := range f.switchesFor(ent.Lead) {
			s := f.Net.Switch(sw)
			rr := booster.NewReroute(sw, g, f.Net.LinkLoad, s.SeenProbe, f.Cfg.Reroute)
			f.Reroutes[sw] = rr
			if err := s.Install(dataplane.Program{
				PPM: rr, Priority: ent.Priority, Modes: gateFor(ent),
			}); err != nil {
				return fmt.Errorf("core: installing reroute: %w", err)
			}
		}
	}
	if !f.Cfg.DisableDropper {
		ent := catalogEntry("dropper")
		for _, sw := range f.switchesFor(ent.Lead) {
			dr := booster.NewDropper(sw, f.Cfg.Dropper)
			f.Droppers[sw] = dr
			if err := f.Net.Switch(sw).Install(dataplane.Program{
				PPM: dr, Priority: ent.Priority, Modes: gateFor(ent),
			}); err != nil {
				return fmt.Errorf("core: installing dropper: %w", err)
			}
		}
	}
	return nil
}

// lfaAlarm wires a detector's alarm into the distributed mode protocol:
// on attack, activate congestion-aware rerouting and then the full
// mitigation mode (pinning + obfuscation + dropping) for the detector's
// region; on subsidence, clear them.
func (f *Fabric) lfaAlarm(sw topo.NodeID) booster.AlarmFunc {
	return func(ctx *dataplane.Context, a booster.Alarm) {
		ctrl := f.Controllers[sw]
		if ctrl == nil {
			return
		}
		region := f.Cfg.Region(sw)
		if a.Active {
			ctrl.RequestActivate(ctx, booster.ModeReroute, region)
			ctrl.RequestActivate(ctx, booster.ModeMitigate, region)
		} else {
			ctrl.RequestClear(ctx, booster.ModeMitigate, region)
			ctrl.RequestClear(ctx, booster.ModeReroute, region)
		}
	}
}

func (f *Fabric) hhAlarm(sw topo.NodeID) booster.AlarmFunc {
	return func(ctx *dataplane.Context, a booster.Alarm) {
		ctrl := f.Controllers[sw]
		if ctrl == nil {
			return
		}
		region := f.Cfg.Region(sw)
		if a.Active {
			ctrl.RequestActivate(ctx, booster.ModeDDoS, region)
		} else {
			ctrl.RequestClear(ctx, booster.ModeDDoS, region)
		}
	}
}

// Run advances the simulation to the horizon.
func (f *Fabric) Run(horizon time.Duration) { f.Net.Run(horizon) }

// ScaleOut repurposes a switch at runtime to host additional defense
// programs — §3.4's dynamic scaling for attacks that exceed the placement
// phase's best-effort planning. Stateful program state ships (FEC-protected)
// to a neighboring switch before the reconfiguration blackout, neighbors
// fast-reroute around the switch, install runs during the blackout, and
// state migrates back. done (optional) fires when the switch is live again.
func (f *Fabric) ScaleOut(target topo.NodeID, latency time.Duration,
	install func(*dataplane.Switch) error, done func(error)) error {
	peer := topo.NodeID(-1)
	for _, nb := range f.Net.G.Neighbors(target) {
		if f.Net.G.Nodes[nb].Kind == topo.Switch {
			peer = nb
			break
		}
	}
	if peer < 0 {
		return fmt.Errorf("core: switch %d has no switch neighbor to hold state", target)
	}
	return f.Scaler.Repurpose(target, state.RepurposeConfig{
		Latency:       latency,
		FastReroute:   true,
		TransferState: true,
		StatePeer:     peer,
		FEC:           state.FECConfig{Parity: true},
	}, install, done)
}

// ModeActiveAt reports whether a mode is active on a switch.
func (f *Fabric) ModeActiveAt(sw topo.NodeID, m dataplane.ModeID) bool {
	return f.Net.Switch(sw).Modes().Has(m)
}

// AttackDetected reports whether any LFA detector currently flags an
// attack.
func (f *Fabric) AttackDetected() bool {
	//ffvet:ok boolean OR over detectors is order-independent
	for _, d := range f.Detectors {
		if d.Active() {
			return true
		}
	}
	return false
}

// Report summarizes the deployment for logs and the fftopo tool.
func (f *Fabric) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "FastFlex fabric: %d switches, %d hosts\n",
		len(f.Net.G.Switches()), len(f.Net.G.Hosts()))
	if f.Merged != nil {
		fmt.Fprintf(&b, "merged dataflow: %d modules (%d shared), saved %v\n",
			len(f.Merged.Modules), f.Merged.SharedCount, f.Merged.SavedResources)
	}
	if f.Placement != nil {
		fmt.Fprintf(&b, "placement: coverage %.0f%%, mitigation distance %.2f hops, %d unplaced\n",
			100*f.Placement.DetectorCoverage, f.Placement.MeanMitigationDistance, len(f.Placement.Unplaced))
	}
	fmt.Fprintf(&b, "boosters: %d detectors, %d reroutes, %d droppers, %d obfuscators, %d heavy-hitters\n",
		len(f.Detectors), len(f.Reroutes), len(f.Droppers), len(f.Obfuscators), len(f.HeavyHit))
	return b.String()
}
