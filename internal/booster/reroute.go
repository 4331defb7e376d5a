package booster

import (
	"fmt"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/packet"
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

type rerouteEntry struct {
	util float64
	at   time.Duration
}

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
	// dstSwitch maps a destination host's dense node index to its edge
	// switch (-1 = unknown); consulted per packet, so a slice, not a map.
	dstSwitch []topo.NodeID

	// table[dst switch][egress link] = advertised path utilization.
	table     map[topo.NodeID]map[topo.LinkID]rerouteEntry
	lastProbe time.Duration
	seq       uint32

	// flowlets pins flows to their current egress between bursts.
	flowlets flowletTable

	Rerouted uint64 // packets steered off their TE egress
	Probes   uint64 // probes originated
	Flowlets uint64 // steering decisions reused from the flowlet table
}

type flowletEntry struct {
	key       packet.FlowKey
	via       topo.LinkID
	firstSeen time.Duration
	lastSeen  time.Duration
}

// flowletTable is a fixed-capacity open-addressed map from flow key to
// flowlet pin. It sits on the steering path of every data packet, where a
// Go map would pay variable-length hashing plus bucket probing per
// lookup. Slot values are entry index + 1; 0 marks an empty slot. The slot
// array is sized for the full capacity up front; the entries behind it
// start at initialFlowlets and double up to the capacity as flows arrive,
// so a table holds host memory for the flows it saw, not for the ones it
// could hold. A *flowletEntry from find is valid until the next insert.
type flowletTable struct {
	entries []flowletEntry
	limit   int // capacity: entries never grows past it
	free    []int32
	slots   []int32
	mask    uint64
}

// initialFlowlets is the entry storage a flowlet table starts with (or its
// capacity, if smaller): the flowlets most reroute switches record over a
// 30 s Figure-3 run, so a warm fabric re-runs with few regrowths.
const initialFlowlets = 512

func newFlowletTable(capacity int) flowletTable {
	slots := 8
	for slots < 2*capacity {
		slots *= 2
	}
	t := flowletTable{
		entries: make([]flowletEntry, 0, min(capacity, initialFlowlets)),
		limit:   capacity,
		slots:   make([]int32, slots),
		mask:    uint64(slots - 1),
	}
	return t
}

// find probes for k, whose table hash is h: the slot that holds it or the
// empty slot where it belongs, and the entry when present.
func (t *flowletTable) find(k packet.FlowKey, h uint64) (uint64, *flowletEntry) {
	i := h & t.mask
	for {
		s := t.slots[i]
		if s == 0 {
			return i, nil
		}
		if e := &t.entries[s-1]; e.key == k {
			return i, e
		}
		i = (i + 1) & t.mask
	}
}

// insert stores a new entry in the empty slot find returned for its key; the
// caller has checked len() < capacity.
func (t *flowletTable) insert(slot uint64, e flowletEntry) {
	var idx int32
	if ln := len(t.free); ln > 0 {
		idx = t.free[ln-1]
		t.free = t.free[:ln-1]
		t.entries[idx] = e
	} else {
		if len(t.entries) == cap(t.entries) {
			// Doubling up to the capacity: the caller's len() check keeps
			// len(entries) below limit whenever no index is free.
			grown := make([]flowletEntry, len(t.entries), min(2*cap(t.entries), t.limit))
			copy(grown, t.entries)
			t.entries = grown
		}
		idx = int32(len(t.entries))
		t.entries = append(t.entries, e)
	}
	t.slots[slot] = idx + 1
}

func (t *flowletTable) len() int { return len(t.entries) - len(t.free) }

// evictStale deletes every entry whose last packet is older than timeout.
// Live entries are reinserted into a cleared slot array — simpler than
// per-slot backshift deletion, and eviction only runs when the table
// fills.
func (t *flowletTable) evictStale(now, timeout time.Duration) {
	for i := range t.slots {
		t.slots[i] = 0
	}
	t.free = t.free[:0]
	for i := range t.entries {
		e := &t.entries[i]
		if now-e.lastSeen >= timeout {
			e.key = packet.FlowKey{}
			t.free = append(t.free, int32(i))
			continue
		}
		slot, _ := t.find(e.key, e.key.TableHash())
		t.slots[slot] = int32(i) + 1
	}
}

// NewReroute builds the rerouting booster for one switch.
func NewReroute(self topo.NodeID, g *topo.Graph, dstSwitch map[packet.Addr]topo.NodeID,
	linkUtil func(topo.LinkID) float64, seenProbe func(packet.DedupKey) bool, cfg RerouteConfig) *Reroute {
	cfg.fillDefaults()
	r := &Reroute{
		cfg: cfg, self: self, g: g,
		linkUtil: linkUtil, seenProbe: seenProbe,
		table:    make(map[topo.NodeID]map[topo.LinkID]rerouteEntry),
		flowlets: newFlowletTable(cfg.FlowletCapacity),
	}
	//ffvet:ok each key writes its own dense slot, so order cannot matter
	for a, sw := range dstSwitch {
		if n := a.Node(); n >= 0 {
			for n >= len(r.dstSwitch) {
				r.dstSwitch = append(r.dstSwitch, -1)
			}
			r.dstSwitch[n] = sw
		}
	}
	return r
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
	//ffvet:ok min with a link-ID tie-break is order-independent
	for via, e := range r.table[dst] {
		if via == exclude || now-e.at > r.cfg.StaleAfter {
			continue
		}
		u := e.util
		if lu := r.linkUtil(via); lu > u {
			u = lu
		}
		if best == -1 || u < bestU || (u == bestU && via < best) {
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
		at.slot, at.entry = r.flowlets.find(at.key, at.hash)
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
		if e, ok := r.table[dsw][ctx.OutLink]; ok && ctx.Now-e.at <= r.cfg.StaleAfter && e.util > cur {
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
	entry *flowletEntry
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
	if r.flowlets.len() >= r.cfg.FlowletCapacity {
		r.flowlets.evictStale(now, r.cfg.FlowletTimeout)
		if r.flowlets.len() >= r.cfg.FlowletCapacity {
			return // table genuinely full of live flowlets; skip recording
		}
		// Eviction rebuilt the slot array, so the key's empty slot moved.
		at.slot, _ = r.flowlets.find(at.key, at.hash)
	}
	r.flowlets.insert(at.slot, flowletEntry{key: at.key, via: via, firstSeen: now, lastSeen: now})
}

// handleProbe folds a received utilization probe into the table and
// refloods it with the updated path metric.
func (r *Reroute) handleProbe(ctx *dataplane.Context) {
	pi := ctx.Pkt.Probe
	origin := pi.Origin.Node()
	if origin < 0 || topo.NodeID(origin) == r.self || ctx.InLink < 0 {
		return
	}
	dst := topo.NodeID(pi.DstSwitch)
	via := r.g.Links[ctx.InLink].Reverse
	if via < 0 {
		return
	}
	adv := float64(pi.UtilMicro) / 1e6
	pathUtil := adv
	if lu := r.linkUtil(via); lu > pathUtil {
		pathUtil = lu
	}
	if r.table[dst] == nil {
		r.table[dst] = make(map[topo.LinkID]rerouteEntry)
	}
	r.table[dst][via] = rerouteEntry{util: pathUtil, at: ctx.Now}

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
