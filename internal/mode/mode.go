package mode

import (
	"fmt"
	"math/bits"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// RegionGlobal in a probe addresses every region.
const RegionGlobal uint16 = 0xFFFF

// Config tunes one switch's mode controller.
type Config struct {
	// Region this switch belongs to. Probes carry a target region;
	// non-matching probes are forwarded but not applied.
	Region uint16
	// MinDwell is the minimum time a mode stays active once activated;
	// clears arriving earlier are ignored (stability hysteresis).
	// Default 500ms.
	MinDwell time.Duration
	// ChangeBudget caps mode transitions applied per BudgetWindow; beyond
	// it, further changes are suppressed (anti-flapping). Defaults: 16
	// per 10s.
	ChangeBudget int
	BudgetWindow time.Duration
	// ProbeHops bounds mode-change probe flooding (default 32).
	ProbeHops uint8
	// SoftTTL makes mode activations soft state: an active mode that is
	// not re-asserted (by a fresh activation probe) within SoftTTL
	// expires locally. This is the self-stabilization backstop of §6 —
	// no matter how clear probes are lost or suppressed, a mode nobody
	// asserts anymore dies out. 0 disables expiry.
	SoftTTL time.Duration
}

func (c *Config) fillDefaults() {
	if c.MinDwell == 0 {
		c.MinDwell = 500 * time.Millisecond
	}
	if c.ChangeBudget == 0 {
		c.ChangeBudget = 16
	}
	if c.BudgetWindow == 0 {
		c.BudgetWindow = 10 * time.Second
	}
	if c.ProbeHops == 0 {
		c.ProbeHops = 32
	}
}

// Controller is the per-switch mode-change PPM. It must be installed at
// PriControl (before everything else) and gated on the default mode.
type Controller struct {
	cfg  Config
	self topo.NodeID

	setMode func(dataplane.ModeID, bool)
	seen    func(packet.DedupKey) bool
	seq     uint32

	// active is the set of modes held here; activatedAt[m] is when mode m
	// in it was last (re)activated.
	active      dataplane.ModeSet
	activatedAt [maxModes]time.Duration
	// leaseFloor is a lower bound on every lease in activatedAt (it may lag
	// behind the true minimum after a refresh, never run ahead of it). It
	// lets the per-packet expire() check bail with one comparison instead
	// of walking the leases on every packet the switch forwards.
	leaseFloor  time.Duration
	changeTimes []time.Duration

	// OnChange, if set, observes applied transitions (experiments hook
	// this to measure mode-change latency).
	OnChange func(m dataplane.ModeID, active bool, now time.Duration)

	Activations uint64
	Clears      uint64
	Suppressed  uint64
	Expired     uint64
}

// NewController builds the controller for one switch. setMode flips modes
// on the owning dataplane switch; seen is its probe dedup filter.
func NewController(self topo.NodeID, setMode func(dataplane.ModeID, bool),
	seen func(packet.DedupKey) bool, cfg Config) *Controller {
	cfg.fillDefaults()
	return &Controller{cfg: cfg, self: self, setMode: setMode, seen: seen}
}

// maxModes is how many modes a ModeSet can name: IDs 0 to 63.
const maxModes = 64

// Name implements PPM.
func (c *Controller) Name() string { return fmt.Sprintf("modectl@%d", c.self) }

// ResetRun implements dataplane.RunResettable: leases, budgets, sequence
// numbers, and counters rewind to their just-built state. The OnChange hook
// survives (the fabric wires it once, at build).
func (c *Controller) ResetRun() {
	c.seq = 0
	c.active = 0
	c.leaseFloor = 0
	c.changeTimes = c.changeTimes[:0]
	c.Activations, c.Clears, c.Suppressed, c.Expired = 0, 0, 0, 0
}

// Resources implements PPM: probe parsing, a mode register, and dedup state.
func (c *Controller) Resources() dataplane.Resources {
	return dataplane.Resources{Stages: 1, SRAMKB: 32, TCAM: 4, ALUs: 1}
}

// Region returns the controller's region.
func (c *Controller) Region() uint16 { return c.cfg.Region }

// Process implements PPM.
func (c *Controller) Process(ctx *dataplane.Context) dataplane.Verdict {
	c.expire(ctx.Now)
	if p := ctx.Pkt; p.Proto == packet.ProtoProbe && p.Probe.Kind == packet.ProbeModeChange {
		return c.handleModeChange(ctx)
	}
	return dataplane.Continue
}

// expire clears modes whose activation lease ran out (soft state). Expiry
// bypasses the dwell and budget checks: it is the stabilizer of last
// resort, not a normal transition.
func (c *Controller) expire(now time.Duration) {
	if c.cfg.SoftTTL <= 0 || c.active == 0 {
		return
	}
	// Every lease was (re)activated at or after leaseFloor, so nothing can
	// have lapsed yet unless the floor itself has. A stale-low floor only
	// costs an occasional wasted sweep; each lease is still checked exactly
	// when it expires.
	if now-c.leaseFloor <= c.cfg.SoftTTL {
		return
	}
	floor := now
	// In mode order, so OnChange observers see expirations in mode order
	// when several leases lapse on the same tick.
	for set := c.active; set != 0; set &= set - 1 {
		m := dataplane.ModeID(bits.TrailingZeros64(uint64(set)))
		if at := c.activatedAt[m]; now-at > c.cfg.SoftTTL {
			c.active = c.active.Without(m)
			c.setMode(m, false)
			c.Expired++
			if c.OnChange != nil {
				c.OnChange(m, false, now)
			}
		} else if at < floor {
			floor = at
		}
	}
	c.leaseFloor = floor
}

func (c *Controller) handleModeChange(ctx *dataplane.Context) dataplane.Verdict {
	pi := ctx.Pkt.Probe
	if pi.Origin == packet.RouterAddr(int(c.self)) {
		return dataplane.Consume // our own probe came back around
	}
	if pi.Mode >= maxModes {
		return dataplane.Consume // no ModeSet holds it: not applied, counted or reflooded
	}
	dup := c.seen(pi.Dedup())
	if !dup && (pi.Region == RegionGlobal || pi.Region == c.cfg.Region) {
		c.apply(dataplane.ModeID(pi.Mode), !pi.Clear, ctx.Now)
	}
	if !dup && pi.HopsLeft > 0 {
		fl := ctx.Pool.Clone(ctx.Pkt)
		fl.Probe.HopsLeft--
		ctx.Emit(fl, -1)
	}
	return dataplane.Consume
}

// apply performs one local transition, subject to dwell and budget checks.
func (c *Controller) apply(m dataplane.ModeID, active bool, now time.Duration) {
	if m == 0 || m >= maxModes {
		return
	}
	held := c.active&(1<<m) != 0
	if !active {
		if !held {
			return // not active here; nothing to clear
		}
		if now-c.activatedAt[m] < c.cfg.MinDwell {
			c.Suppressed++
			return
		}
		if !c.budgetOK(now) {
			c.Suppressed++
			return
		}
		c.active = c.active.Without(m)
		c.setMode(m, false)
		c.Clears++
		c.recordChange(now)
		if c.OnChange != nil {
			c.OnChange(m, false, now)
		}
		return
	}
	if held {
		c.activatedAt[m] = now // refresh dwell on re-assertion
		return
	}
	if !c.budgetOK(now) {
		c.Suppressed++
		return
	}
	if c.active == 0 {
		c.leaseFloor = now
	}
	c.active = c.active.With(m)
	c.activatedAt[m] = now
	c.setMode(m, true)
	c.Activations++
	c.recordChange(now)
	if c.OnChange != nil {
		c.OnChange(m, true, now)
	}
}

func (c *Controller) budgetOK(now time.Duration) bool {
	cutoff := now - c.cfg.BudgetWindow
	keep := c.changeTimes[:0]
	for _, t := range c.changeTimes {
		if t > cutoff {
			keep = append(keep, t)
		}
	}
	c.changeTimes = keep
	return len(c.changeTimes) < c.cfg.ChangeBudget
}

func (c *Controller) recordChange(now time.Duration) {
	c.changeTimes = append(c.changeTimes, now)
}

// RequestActivate applies the mode locally and floods an activation probe
// to the target region. Detectors call this from their Alarm hook, inside
// packet processing — the whole loop stays in the data plane.
func (c *Controller) RequestActivate(ctx *dataplane.Context, m dataplane.ModeID, region uint16) {
	c.apply(m, true, ctx.Now)
	c.emitProbe(ctx, m, region, false)
}

// RequestClear applies the clear locally (subject to dwell) and floods a
// clear probe.
func (c *Controller) RequestClear(ctx *dataplane.Context, m dataplane.ModeID, region uint16) {
	c.apply(m, false, ctx.Now)
	c.emitProbe(ctx, m, region, true)
}

// emitProbe floods a mode-change probe from this switch with the next
// sequence number (emissions leave after the pipeline pass).
func (c *Controller) emitProbe(ctx *dataplane.Context, m dataplane.ModeID, region uint16, clear bool) {
	c.seq++
	pr := ctx.Pool.GetProbe()
	pr.Src = packet.RouterAddr(int(c.self))
	pr.Dst = packet.RouterAddr(0xFFFE)
	pr.TTL = 64
	pi := pr.Probe
	pi.Kind = packet.ProbeModeChange
	pi.Origin = pr.Src
	pi.Seq = c.seq
	pi.HopsLeft = c.cfg.ProbeHops
	pi.Mode = uint8(m)
	pi.Region = region
	pi.Clear = clear
	ctx.Emit(pr, -1)
}

// ActiveSince returns when the mode was locally activated; ok is false if
// the mode is not active.
func (c *Controller) ActiveSince(m dataplane.ModeID) (time.Duration, bool) {
	if c.active&(1<<m) == 0 {
		return 0, false
	}
	return c.activatedAt[m], true
}
