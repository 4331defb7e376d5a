package dataplane

import (
	"fmt"
	"sort"

	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// Resources is the paper's per-switch resource vector <Θ1..Θk> (§3.1):
// hardware stages, SRAM, TCAM entries, and ALUs. The same type describes a
// switch's budget and a program's requirement.
type Resources struct {
	Stages int
	SRAMKB float64
	TCAM   int
	ALUs   int
}

// Add returns r + q component-wise.
func (r Resources) Add(q Resources) Resources {
	return Resources{r.Stages + q.Stages, r.SRAMKB + q.SRAMKB, r.TCAM + q.TCAM, r.ALUs + q.ALUs}
}

// Sub returns r − q component-wise.
func (r Resources) Sub(q Resources) Resources {
	return Resources{r.Stages - q.Stages, r.SRAMKB - q.SRAMKB, r.TCAM - q.TCAM, r.ALUs - q.ALUs}
}

// Fits reports whether q fits within r on every dimension.
func (r Resources) Fits(q Resources) bool {
	return q.Stages <= r.Stages && q.SRAMKB <= r.SRAMKB && q.TCAM <= r.TCAM && q.ALUs <= r.ALUs
}

// NonNegative reports whether every component is ≥ 0.
func (r Resources) NonNegative() bool {
	return r.Stages >= 0 && r.SRAMKB >= 0 && r.TCAM >= 0 && r.ALUs >= 0
}

func (r Resources) String() string {
	return fmt.Sprintf("{stages:%d sram:%.2fKB tcam:%d alus:%d}", r.Stages, r.SRAMKB, r.TCAM, r.ALUs)
}

// TofinoLike returns the default switch budget, modeled on the 10–20 stage
// RMT architecture the paper cites [19]: 16 stages, 1.5 MB SRAM and 256
// TCAM entries and 4 ALUs per stage.
func TofinoLike() Resources {
	return Resources{Stages: 16, SRAMKB: 16 * 1536, TCAM: 16 * 256, ALUs: 16 * 4}
}

// ModeID identifies a defense mode. Mode 0 is the always-on default mode.
type ModeID uint8

// ModeSet is a bitmask of active modes. A switch holds a *set* so that
// mixed-vector attacks can activate several defenses at once (§2, Fig. 2).
type ModeSet uint64

// With returns the set with m added.
func (s ModeSet) With(m ModeID) ModeSet { return s | 1<<m }

// Without returns the set with m removed.
func (s ModeSet) Without(m ModeID) ModeSet { return s &^ (1 << m) }

// Has reports whether m is active. Mode 0 (default) is always active.
func (s ModeSet) Has(m ModeID) bool { return m == 0 || s&(1<<m) != 0 }

// Verdict is a PPM's disposition for the packet being processed.
type Verdict uint8

// Verdicts. Continue passes the packet to the next PPM; Drop discards it;
// Consume terminates processing without forwarding (the packet was absorbed
// by the switch, e.g. a probe for this switch).
const (
	Continue Verdict = iota
	Drop
	Consume
)

// PPM is a packet-processing module: the unit of installation, sharing, and
// placement. Process is called once per packet in pipeline priority order.
type PPM interface {
	// Name identifies the module in placements and reports.
	Name() string
	// Resources returns the module's footprint, charged against the
	// switch budget at install time.
	Resources() Resources
	// Process inspects and/or edits the packet, possibly emitting more.
	Process(ctx *Context) Verdict
}

// Stateful is implemented by PPMs whose register state can be transferred
// when a switch is repurposed (§3.4).
type Stateful interface {
	PPM
	// Snapshot serializes the module's registers.
	Snapshot() []byte
	// Restore loads registers from a snapshot.
	Restore([]byte) error
}

// RunResettable is implemented by PPMs that can rewind to their just-built
// state in place, which is what lets a warm switch be reused across
// simulation runs (Switch.ResetRun) instead of rebuilt. ResetRun must clear
// everything a run mutates — tables, counters, lease clocks — and keep
// everything construction derived from configuration, so that a reset
// module is indistinguishable from a freshly constructed one.
type RunResettable interface {
	PPM
	// ResetRun rewinds the module to its just-built state.
	ResetRun()
}

// Program is an installed PPM plus its gating and ordering metadata.
type Program struct {
	PPM PPM
	// Priority orders the pipeline: lower runs earlier. Convention:
	// 0–99 ingress/bookkeeping, 100–199 detection, 200–299 routing,
	// 300–399 mitigation/egress rewriting.
	Priority int
	// Modes is the set of modes in which the PPM runs. Gate on mode 0
	// (DefaultMode) to run always.
	Modes ModeSet
}

// Canonical pipeline priorities.
const (
	PriControl   = 10  // probe/mode-change handling
	PriDetect    = 100 // detection boosters
	PriRouting   = 200 // base routing
	PriReroute   = 250 // congestion-aware rerouting (overrides routing)
	PriMitigate  = 300 // dropping/rate limiting
	PriObfuscate = 350 // egress rewriting (topology obfuscation)
)

// Switch is one multimode dataplane element.
type Switch struct {
	Node   topo.NodeID
	Region uint16
	Budget Resources

	programs []Program
	used     Resources
	modes    ModeSet

	// Compiled forwarding plane: active is the pipeline compiled for the
	// current mode set (see pipeline.go); pipelines caches compilations
	// per ModeSet and epoch counts install/uninstall generations.
	active    []pipelineStep
	pipelines map[ModeSet][]pipelineStep
	epoch     uint64

	// probe duplicate suppression (bounded FIFO-evicted set)
	seen *dedupTable

	// Reconfiguring marks the switch as mid-repurpose: it cannot process
	// packets and the simulator treats it as down (§3.4).
	Reconfiguring bool

	// Counters for reports and tests.
	Processed uint64
	Dropped   uint64
}

// NewSwitch returns a switch with the given resource budget.
func NewSwitch(node topo.NodeID, budget Resources) *Switch {
	s := &Switch{Node: node, Budget: budget, seen: newDedupTable()}
	s.recompile()
	return s
}

// Install admits a program if its footprint fits the remaining budget.
// This is where the resource-multiplexing constraint of §3.1 is enforced:
// the scheduler cannot over-pack a switch.
func (s *Switch) Install(p Program) error {
	need := p.PPM.Resources()
	remaining := s.Budget.Sub(s.used)
	if !remaining.Fits(need) {
		return fmt.Errorf("dataplane: switch %d cannot fit %q: need %v, have %v",
			s.Node, p.PPM.Name(), need, remaining)
	}
	s.programs = append(s.programs, p)
	sort.SliceStable(s.programs, func(i, j int) bool {
		return s.programs[i].Priority < s.programs[j].Priority
	})
	s.used = s.used.Add(need)
	s.invalidatePipelines()
	return nil
}

// Uninstall removes the named program and releases its resources. It
// returns the removed PPM, or nil if not installed.
func (s *Switch) Uninstall(name string) PPM {
	for i, p := range s.programs {
		if p.PPM.Name() == name {
			s.programs = append(s.programs[:i], s.programs[i+1:]...)
			s.used = s.used.Sub(p.PPM.Resources())
			s.invalidatePipelines()
			return p.PPM
		}
	}
	return nil
}

// Programs returns the installed programs in pipeline order.
func (s *Switch) Programs() []Program { return s.programs }

// Lookup returns the installed PPM with the given name, or nil.
func (s *Switch) Lookup(name string) PPM {
	for _, p := range s.programs {
		if p.PPM.Name() == name {
			return p.PPM
		}
	}
	return nil
}

// Used returns the resources consumed by installed programs.
func (s *Switch) Used() Resources { return s.used }

// Modes returns the switch's active mode set.
func (s *Switch) Modes() ModeSet { return s.modes }

// SetMode activates or clears a mode locally. Mode 0 cannot be cleared.
// Mode changes are RTT-timescale events (§3.2), so this is the natural
// place to swap the compiled pipeline: the per-packet path never
// re-evaluates mode gates.
func (s *Switch) SetMode(m ModeID, on bool) {
	if m == 0 {
		return
	}
	prev := s.modes
	if on {
		s.modes = s.modes.With(m)
	} else {
		s.modes = s.modes.Without(m)
	}
	if s.modes != prev {
		s.recompile()
	}
}

// SeenProbe records a probe's dedup key and reports whether it was already
// seen. The set is bounded; oldest entries fall out first.
func (s *Switch) SeenProbe(k packet.DedupKey) bool {
	return s.seen.seen(k)
}

// DedupEvictions reports how many probe keys the bounded dedup table has
// evicted. Sustained growth means the probe working set is larger than
// the table and stale duplicates would be re-accepted.
func (s *Switch) DedupEvictions() uint64 { return s.seen.Evictions() }

// Process runs the packet through the compiled pipeline. It returns the
// final verdict; the forwarding decision and emissions are left in ctx.
//
// The loop is the per-packet hot path of the whole simulator: it indexes a
// flat slice of verdict-returning step functions compiled for the current
// mode set (pipeline.go), so there is no per-packet mode-gate evaluation
// and no map access — mirroring how RMT hardware runs a compiled
// match-action program rather than interpreting one. Each step is an
// interface method value, so every stage still dispatches through the PPM
// interface.
//
//ffvet:hotpath
func (s *Switch) Process(ctx *Context) Verdict {
	s.Processed++
	for _, step := range s.active {
		switch v := step.run(ctx); v {
		case Drop:
			s.Dropped++
			return Drop
		case Consume:
			return Consume
		}
	}
	return Continue
}

// ResetRun rewinds the switch to its just-built state so a warm fabric can
// be re-run: every installed PPM resets, the mode set drops back to the
// default, probe dedup and sequence state clear, and the per-run counters
// zero. The compiled-pipeline cache and install epoch survive — compiled
// pipelines depend only on the installed program set and ModeSet, never on
// a run's traffic — so re-activating a mode on the next run reuses the
// compilation instead of repeating it.
//
// It fails (mutating nothing) if any installed PPM does not implement
// RunResettable, since such a module could leak one run's state into the
// next; callers fall back to a fresh build.
func (s *Switch) ResetRun() error {
	for _, p := range s.programs {
		if _, ok := p.PPM.(RunResettable); !ok {
			return fmt.Errorf("dataplane: switch %d: program %q is not run-resettable",
				s.Node, p.PPM.Name())
		}
	}
	for _, p := range s.programs {
		p.PPM.(RunResettable).ResetRun()
	}
	if s.modes != 0 {
		s.modes = 0
		s.recompile()
	}
	s.seen.reset()
	s.Reconfiguring = false
	s.Processed, s.Dropped = 0, 0
	return nil
}

// modeMatch reports whether a program gated on the given modes should run:
// it runs if any of its gate modes is active (mode 0 always is).
func (s *Switch) modeMatch(gate ModeSet) bool {
	if gate&1 != 0 { // gated on default mode → always on
		return true
	}
	return s.modes&gate != 0
}

// SnapshotAll serializes the state of every Stateful program, keyed by
// program name, for transfer before repurposing.
func (s *Switch) SnapshotAll() map[string][]byte {
	out := make(map[string][]byte)
	for _, p := range s.programs {
		if st, ok := p.PPM.(Stateful); ok {
			out[p.PPM.Name()] = st.Snapshot()
		}
	}
	return out
}

// RestoreAll loads snapshots into matching Stateful programs. Missing
// programs are ignored; restore errors are returned joined.
func (s *Switch) RestoreAll(snaps map[string][]byte) error {
	var firstErr error
	for _, p := range s.programs {
		st, ok := p.PPM.(Stateful)
		if !ok {
			continue
		}
		if data, ok := snaps[p.PPM.Name()]; ok {
			if err := st.Restore(data); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("dataplane: restore %q: %w", p.PPM.Name(), err)
			}
		}
	}
	return firstErr
}
