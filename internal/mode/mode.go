package mode

import (
	"fmt"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/eventsim"
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
	// SyncEvery is the period for broadcasting local detector metrics to
	// other controllers; 0 disables synchronization (default 0).
	SyncEvery time.Duration
	// SyncStale: remote samples older than this are excluded from global
	// aggregates (default 3×SyncEvery).
	SyncStale time.Duration
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
	if c.SyncEvery > 0 && c.SyncStale == 0 {
		c.SyncStale = 3 * c.SyncEvery
	}
}

type syncSample struct {
	value uint32
	count uint32
	at    time.Duration
}

// Controller is the per-switch mode-change PPM. It must be installed at
// PriControl (before everything else) and gated on the default mode.
type Controller struct {
	cfg  Config
	self topo.NodeID

	setMode func(dataplane.ModeID, bool)
	seen    func(packet.DedupKey) bool
	seq     uint32

	activatedAt map[dataplane.ModeID]time.Duration
	// leaseFloor is a lower bound on every value in activatedAt (it may lag
	// behind the true minimum after a refresh, never run ahead of it). It
	// lets the per-packet expire() check bail with one comparison instead
	// of sorting the lease map on every packet the switch forwards.
	leaseFloor  time.Duration
	changeTimes []time.Duration

	// Distributed detection: local metric providers and remote views.
	metrics  map[uint8]func() uint32
	view     map[uint8]map[packet.Addr]syncSample
	lastSync time.Duration

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
	return &Controller{
		cfg: cfg, self: self, setMode: setMode, seen: seen,
		activatedAt: make(map[dataplane.ModeID]time.Duration),
		metrics:     make(map[uint8]func() uint32),
		view:        make(map[uint8]map[packet.Addr]syncSample),
	}
}

// Name implements PPM.
func (c *Controller) Name() string { return fmt.Sprintf("modectl@%d", c.self) }

// ResetRun implements dataplane.RunResettable: leases, budgets, sync views,
// sequence numbers, and counters rewind to their just-built state. The
// OnChange hook survives (the fabric wires it once, at build); registered
// metrics clear, because detectors register them after the fabric exists
// and will re-register on the next run's setup.
func (c *Controller) ResetRun() {
	c.seq = 0
	clear(c.activatedAt)
	c.leaseFloor = 0
	c.changeTimes = c.changeTimes[:0]
	clear(c.metrics)
	clear(c.view)
	c.lastSync = 0
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
	p := ctx.Pkt
	if p.Proto == packet.ProtoProbe {
		switch p.Probe.Kind {
		case packet.ProbeModeChange:
			return c.handleModeChange(ctx)
		case packet.ProbeSync:
			return c.handleSync(ctx)
		}
		return dataplane.Continue
	}
	if c.cfg.SyncEvery > 0 && len(c.metrics) > 0 && ctx.Now-c.lastSync >= c.cfg.SyncEvery {
		c.lastSync = ctx.Now
		c.broadcastSync(ctx)
	}
	return dataplane.Continue
}

// expire clears modes whose activation lease ran out (soft state). Expiry
// bypasses the dwell and budget checks: it is the stabilizer of last
// resort, not a normal transition.
func (c *Controller) expire(now time.Duration) {
	if c.cfg.SoftTTL <= 0 || len(c.activatedAt) == 0 {
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
	// Sorted so that OnChange observers see expirations in mode order, not
	// map order, when several leases lapse on the same tick.
	for _, m := range eventsim.SortedKeys(c.activatedAt) {
		if at := c.activatedAt[m]; now-at > c.cfg.SoftTTL {
			delete(c.activatedAt, m)
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
	if m == 0 {
		return
	}
	if !active {
		at, ok := c.activatedAt[m]
		if !ok {
			return // not active here; nothing to clear
		}
		if now-at < c.cfg.MinDwell {
			c.Suppressed++
			return
		}
		if !c.budgetOK(now) {
			c.Suppressed++
			return
		}
		delete(c.activatedAt, m)
		c.setMode(m, false)
		c.Clears++
		c.recordChange(now)
		if c.OnChange != nil {
			c.OnChange(m, false, now)
		}
		return
	}
	if _, ok := c.activatedAt[m]; ok {
		c.activatedAt[m] = now // refresh dwell on re-assertion
		return
	}
	if !c.budgetOK(now) {
		c.Suppressed++
		return
	}
	if len(c.activatedAt) == 0 {
		c.leaseFloor = now
	}
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

func (c *Controller) emitProbe(ctx *dataplane.Context, m dataplane.ModeID, region uint16, clear bool) {
	pi := c.floodProbe(ctx, packet.ProbeModeChange)
	pi.Mode = uint8(m)
	pi.Region = region
	pi.Clear = clear
}

// floodProbe emits a flood probe of the given kind from this switch, with
// the next sequence number, and returns its header for the caller to fill
// in the kind-specific fields (emissions leave after the pipeline pass).
func (c *Controller) floodProbe(ctx *dataplane.Context, kind packet.ProbeKind) *packet.ProbeInfo {
	c.seq++
	pr := ctx.Pool.GetProbe()
	pr.Src = packet.RouterAddr(int(c.self))
	pr.Dst = packet.RouterAddr(0xFFFE)
	pr.TTL = 64
	pi := pr.Probe
	pi.Kind = kind
	pi.Origin = pr.Src
	pi.Seq = c.seq
	pi.HopsLeft = c.cfg.ProbeHops
	ctx.Emit(pr, -1)
	return pi
}

// ActiveSince returns when the mode was locally activated; ok is false if
// the mode is not active.
func (c *Controller) ActiveSince(m dataplane.ModeID) (time.Duration, bool) {
	at, ok := c.activatedAt[m]
	return at, ok
}

// --- Distributed detection synchronization ---

// RegisterMetric exposes a local detector counter (identified by id) for
// periodic broadcast. Used for network-wide detection such as global rate
// limits and network-wide heavy hitters (§3.3).
func (c *Controller) RegisterMetric(id uint8, fn func() uint32) {
	c.metrics[id] = fn
}

func (c *Controller) broadcastSync(ctx *dataplane.Context) {
	// Sorted so sequence numbers and probe emission order are reproducible
	// across runs regardless of metric registration history.
	for _, id := range eventsim.SortedKeys(c.metrics) {
		pi := c.floodProbe(ctx, packet.ProbeSync)
		pi.Mode = id
		pi.UtilMicro = c.metrics[id]()
		pi.SyncCount = 1
	}
}

func (c *Controller) handleSync(ctx *dataplane.Context) dataplane.Verdict {
	pi := ctx.Pkt.Probe
	if pi.Origin == packet.RouterAddr(int(c.self)) {
		return dataplane.Consume
	}
	dup := c.seen(pi.Dedup())
	id := pi.Mode
	if c.view[id] == nil {
		c.view[id] = make(map[packet.Addr]syncSample)
	}
	c.view[id][pi.Origin] = syncSample{value: pi.UtilMicro, count: pi.SyncCount, at: ctx.Now}
	if !dup && pi.HopsLeft > 0 {
		fl := ctx.Pool.Clone(ctx.Pkt)
		fl.Probe.HopsLeft--
		ctx.Emit(fl, -1)
	}
	return dataplane.Consume
}

// GlobalValue returns the sum of the metric across all fresh remote views
// plus the local value. This is the primitive a global rate limiter builds
// on.
func (c *Controller) GlobalValue(id uint8, now time.Duration) uint64 {
	var total uint64
	if fn, ok := c.metrics[id]; ok {
		total += uint64(fn())
	}
	//ffvet:ok summing samples is order-independent
	for _, s := range c.view[id] {
		if c.cfg.SyncStale == 0 || now-s.at <= c.cfg.SyncStale {
			total += uint64(s.value)
		}
	}
	return total
}

// PeerCount returns how many distinct remote detectors have fresh samples
// for the metric.
func (c *Controller) PeerCount(id uint8, now time.Duration) int {
	n := 0
	//ffvet:ok counting fresh samples is order-independent
	for _, s := range c.view[id] {
		if c.cfg.SyncStale == 0 || now-s.at <= c.cfg.SyncStale {
			n++
		}
	}
	return n
}
