package booster

import (
	"fmt"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/packet"
	"fastflex/internal/sketch"
	"fastflex/internal/topo"
)

// RerouteConfig parameterizes the congestion-aware rerouting booster.
type RerouteConfig struct {
	// ProbeEvery is the utilization-probe period (default 50ms). Probes
	// are emitted from the dataplane itself (time-gated on packet
	// arrivals, like a hardware packet generator), so rerouting reacts at
	// RTT timescales — the core claim of the case study.
	ProbeEvery time.Duration
	// ProbeHops bounds probe flooding (default 16).
	ProbeHops uint8
	// StaleAfter: table entries older than this are ignored (default
	// 5×ProbeEvery).
	StaleAfter time.Duration
	// RerouteAllOverride forces rerouting of all flows even in mitigation
	// mode — ablation A6's "no pinning" arm.
	RerouteAllOverride bool
	// Hysteresis: only move traffic off the TE egress when the best
	// alternative is at least this much less utilized (default 0.1).
	Hysteresis float64
	// FlowletTimeout: packets of the same flow arriving within this gap
	// stick to the previously chosen egress (Hula's flowlet switching —
	// path changes only happen in inter-burst gaps, avoiding TCP
	// reordering). Default 50ms; negative disables flowlets.
	FlowletTimeout time.Duration
	// FlowletCapacity bounds the flowlet table (default 8192).
	FlowletCapacity int
	// MaxFlowletAge forces a fresh steering decision for long-lived
	// gap-less flows (CBR never pauses, so the inter-burst gap alone
	// would pin it to its first path forever). Default 10×FlowletTimeout.
	MaxFlowletAge time.Duration
}

func (c *RerouteConfig) fillDefaults() {
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 50 * time.Millisecond
	}
	if c.ProbeHops == 0 {
		c.ProbeHops = 16
	}
	if c.StaleAfter == 0 {
		c.StaleAfter = 5 * c.ProbeEvery
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 0.1
	}
	if c.FlowletTimeout == 0 {
		c.FlowletTimeout = 50 * time.Millisecond
	}
	if c.FlowletCapacity == 0 {
		c.FlowletCapacity = 8192
	}
	if c.MaxFlowletAge == 0 {
		c.MaxFlowletAge = 10 * c.FlowletTimeout
	}
}

// rerouteEntry is one register of the path table: the utilization last
// advertised for a path and when. at is unset until a probe writes it, so an
// empty register never reads as a fresh idle path.
type rerouteEntry struct {
	util float64
	at   time.Duration
}

const unset time.Duration = -1

// Reroute is the Hula/Contra-style performance-aware routing booster
// (§4.1 "routing around congestion"): switches disseminate probes carrying
// path utilization and steer traffic onto the least-congested path entirely
// in the data plane. In mitigation mode it pins normal flows to their TE
// paths and reroutes only suspicious traffic (§4.2 step 3).
type Reroute struct {
	cfg  RerouteConfig
	self topo.NodeID
	g    *topo.Graph

	linkUtil  func(topo.LinkID) float64
	seenProbe func(packet.DedupKey) bool
	// dstSwitch maps a destination host's node index to its edge switch
	// (-1 = not a host).
	dstSwitch []topo.NodeID

	// ports are this switch's egress links toward other switches in
	// link-ID order. table[dst*len(ports)+j] is the path utilization last
	// advertised toward switch dst via ports[j], for dst < rows.
	ports     []topo.LinkID
	table     []rerouteEntry
	rows      int
	lastProbe time.Duration
	seq       uint32

	// flowlets pins flows to their current egress between bursts.
	flowlets sketch.Table[flowlet]

	Rerouted uint64 // packets steered off their TE egress
	Probes   uint64 // probes originated
	Flowlets uint64 // steering decisions reused from the flowlet table
}

// flowlet is a flow's pinned egress and the span of its current burst.
type flowlet struct {
	via                 topo.LinkID
	firstSeen, lastSeen time.Duration
}

// NewReroute builds the rerouting booster for one switch. The path table
// has a row per switch ID of g and a column per egress toward a switch.
func NewReroute(self topo.NodeID, g *topo.Graph, linkUtil func(topo.LinkID) float64,
	seenProbe func(packet.DedupKey) bool, cfg RerouteConfig) *Reroute {
	cfg.fillDefaults()
	r := &Reroute{
		cfg: cfg, self: self, g: g,
		linkUtil: linkUtil, seenProbe: seenProbe,
		dstSwitch: make([]topo.NodeID, len(g.Nodes)),
		flowlets:  sketch.NewTable[flowlet](cfg.FlowletCapacity, sketch.InitialEntries),
	}
	for n := range r.dstSwitch {
		r.dstSwitch[n] = g.HostEdgeSwitch(topo.NodeID(n))
	}
	for _, sw := range g.Switches() {
		r.rows = max(r.rows, int(sw)+1)
	}
	for _, l := range g.Out(self) { // in link-ID order
		if g.Nodes[g.Links[l].To].Kind == topo.Switch {
			r.ports = append(r.ports, l)
		}
	}
	r.table = make([]rerouteEntry, r.rows*len(r.ports))
	r.clearTable()
	return r
}

func (r *Reroute) clearTable() {
	for i := range r.table {
		r.table[i] = rerouteEntry{at: unset}
	}
}

// row returns the table row toward switch dst, empty when dst is outside
// the table.
func (r *Reroute) row(dst topo.NodeID) []rerouteEntry {
	if uint(dst) >= uint(r.rows) {
		return nil
	}
	n := len(r.ports)
	return r.table[int(dst)*n : int(dst)*n+n]
}

// entry returns the register for paths toward dst via egress link via, or
// nil when the table has none.
func (r *Reroute) entry(dst topo.NodeID, via topo.LinkID) *rerouteEntry {
	row := r.row(dst)
	for j := range row {
		if r.ports[j] == via {
			return &row[j]
		}
	}
	return nil
}

// fresh reports whether a register holds an advertisement still usable at
// now.
func (r *Reroute) fresh(e *rerouteEntry, now time.Duration) bool {
	return e.at != unset && now-e.at <= r.cfg.StaleAfter
}

// Name implements PPM.
func (r *Reroute) Name() string { return fmt.Sprintf("reroute@%d", r.self) }

// Resources implements PPM: a per-destination best-path table plus probe
// generation logic.
func (r *Reroute) Resources() dataplane.Resources {
	return dataplane.Resources{Stages: 2, SRAMKB: 256, TCAM: 0, ALUs: 3}
}

// BestVia returns the current least-utilized egress toward dst and its
// path utilization; ok is false when no fresh entry exists.
func (r *Reroute) BestVia(dst topo.NodeID, now time.Duration, exclude topo.LinkID) (topo.LinkID, float64, bool) {
	best := topo.LinkID(-1)
	bestU := 0.0
	row := r.row(dst)
	for j := range row {
		via := r.ports[j]
		if via == exclude || !r.fresh(&row[j], now) {
			continue
		}
		u := row[j].util
		if lu := r.linkUtil(via); lu > u {
			u = lu
		}
		// Ports run in link-ID order, so a tie keeps the lower link ID.
		if best == -1 || u < bestU {
			best, bestU = via, u
		}
	}
	return best, bestU, best != -1
}

// Process implements PPM.
func (r *Reroute) Process(ctx *dataplane.Context) dataplane.Verdict {
	p := ctx.Pkt
	// 1. Probe handling.
	if p.Proto == packet.ProtoProbe && p.Probe.Kind == packet.ProbeUtil {
		r.handleProbe(ctx)
		return dataplane.Consume
	}
	// 2. Time-gated probe origination.
	if ctx.Now-r.lastProbe >= r.cfg.ProbeEvery {
		r.lastProbe = ctx.Now
		r.originateProbe(ctx)
	}
	// 3. Data-packet steering.
	if p.Proto != packet.ProtoTCP && p.Proto != packet.ProtoUDP {
		return dataplane.Continue
	}
	dsw := topo.NodeID(-1)
	if n := p.Dst.Node(); uint(n) < uint(len(r.dstSwitch)) {
		dsw = r.dstSwitch[n]
	}
	if dsw < 0 || dsw == r.self {
		return dataplane.Continue
	}
	// Pinning policy (Figure 2 step 2 vs 3): with mitigation mode active,
	// normal flows stay on their TE path; only suspicious traffic is
	// rerouted — unless the ablation override is set.
	pinNormal := ctx.Modes.Has(ModeMitigate) && !r.cfg.RerouteAllOverride
	if pinNormal && p.Suspicion == SuspicionNone {
		return dataplane.Continue
	}
	// Flowlet pinning: packets of an active burst keep their egress so
	// path changes never reorder a flow mid-burst. The table is probed once
	// per pass; whichever branch records the decision below reuses the
	// result.
	var at flowletAt
	if r.cfg.FlowletTimeout > 0 {
		at.key, at.hash = p.Flow()
		at.slot, at.entry = r.flowlets.Find(at.key, at.hash)
		if fl := at.entry; fl != nil &&
			ctx.Now-fl.lastSeen < r.cfg.FlowletTimeout &&
			ctx.Now-fl.firstSeen < r.cfg.MaxFlowletAge {
			fl.lastSeen = ctx.Now
			if fl.via != ctx.OutLink {
				ctx.OutLink = fl.via
				r.Rerouted++
				r.Flowlets++
			}
			return dataplane.Continue
		}
	}
	exclude := topo.LinkID(-1)
	if ctx.InLink >= 0 {
		exclude = r.g.Links[ctx.InLink].Reverse
	}
	via, bestU, ok := r.BestVia(dsw, ctx.Now, exclude)
	if !ok || via == ctx.OutLink {
		r.recordFlowlet(at, ctx.OutLink, ctx.Now)
		return dataplane.Continue
	}
	// Hysteresis against the TE egress: move only if clearly better.
	if ctx.OutLink >= 0 {
		cur := r.linkUtil(ctx.OutLink)
		if e := r.entry(dsw, ctx.OutLink); e != nil && r.fresh(e, ctx.Now) && e.util > cur {
			cur = e.util
		}
		if bestU+r.cfg.Hysteresis >= cur {
			r.recordFlowlet(at, ctx.OutLink, ctx.Now)
			return dataplane.Continue
		}
	}
	ctx.OutLink = via
	r.Rerouted++
	r.recordFlowlet(at, via, ctx.Now)
	return dataplane.Continue
}

// flowletAt is where one packet's flow sits in the flowlet table: the result
// of the pass's single probe, handed to recordFlowlet.
type flowletAt struct {
	key   packet.FlowKey
	hash  uint64
	slot  uint64
	entry *flowlet
}

// recordFlowlet remembers a steering decision; the table is bounded by
// wholesale eviction of stale entries when full (register-array style).
func (r *Reroute) recordFlowlet(at flowletAt, via topo.LinkID, now time.Duration) {
	if r.cfg.FlowletTimeout <= 0 || via < 0 {
		return
	}
	if fl := at.entry; fl != nil {
		fl.via, fl.firstSeen, fl.lastSeen = via, now, now
		return
	}
	if r.flowlets.Len() >= r.flowlets.Cap() {
		timeout := r.cfg.FlowletTimeout
		r.flowlets.Sweep(func(fl *flowlet) bool { return now-fl.lastSeen < timeout })
		if r.flowlets.Len() >= r.flowlets.Cap() {
			return // table genuinely full of live flowlets; skip recording
		}
		// Deletion backshifts slots, so the key's empty slot may move.
		at.slot, _ = r.flowlets.Find(at.key, at.hash)
	}
	r.flowlets.Insert(at.slot, at.key, flowlet{via: via, firstSeen: now, lastSeen: now})
}

// handleProbe folds a received utilization probe into the table and
// refloods it with the updated path metric.
func (r *Reroute) handleProbe(ctx *dataplane.Context) {
	pi := ctx.Pkt.Probe
	origin := pi.Origin.Node()
	if origin < 0 || topo.NodeID(origin) == r.self || ctx.InLink < 0 {
		return
	}
	via := r.g.Links[ctx.InLink].Reverse
	e := r.entry(topo.NodeID(pi.DstSwitch), via)
	if e == nil {
		return // no such switch or no such egress: recorded nowhere
	}
	pathUtil := float64(pi.UtilMicro) / 1e6
	if lu := r.linkUtil(via); lu > pathUtil {
		pathUtil = lu
	}
	*e = rerouteEntry{util: pathUtil, at: ctx.Now}

	if r.seenProbe != nil && r.seenProbe(pi.Dedup()) {
		return
	}
	if pi.HopsLeft == 0 {
		return
	}
	fl := ctx.Pool.Clone(ctx.Pkt)
	fl.Probe.HopsLeft--
	fl.Probe.UtilMicro = uint32(pathUtil * 1e6)
	ctx.Emit(fl, -1)
}

// originateProbe floods this switch's own reachability probe (util 0 at the
// origin; the metric accumulates max link utilization as it propagates).
func (r *Reroute) originateProbe(ctx *dataplane.Context) {
	r.seq++
	r.Probes++
	pr := ctx.Pool.GetProbe()
	pr.Src = packet.RouterAddr(int(r.self))
	pr.Dst = packet.RouterAddr(0xFFFE) // flood address, never delivered
	pr.TTL = 64
	pi := pr.Probe
	pi.Kind = packet.ProbeUtil
	pi.Origin = pr.Src
	pi.Seq = r.seq
	pi.HopsLeft = r.cfg.ProbeHops
	pi.DstSwitch = uint16(r.self) // UtilMicro starts at 0
	ctx.Emit(pr, -1)
}
