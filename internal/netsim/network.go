package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/eventsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// Config tunes global simulator behavior.
type Config struct {
	// QueueBytes is the per-link FIFO capacity (default 64 KiB).
	QueueBytes int
	// SwitchLatency is the fixed pipeline latency per switch hop.
	SwitchLatency time.Duration
	// UtilWindow is the link-utilization measurement window.
	UtilWindow time.Duration
	// UtilAlpha is the EWMA weight for the smoothed utilization.
	UtilAlpha float64
	// Seed seeds the simulation RNG.
	Seed int64
	// Shards selects the engine. Zero runs the original serial engine
	// (byte-compatible with all pre-sharding results). Any value >= 1
	// runs the windowed engine on that many worker goroutines (1 runs
	// inline, with none); how finely the graph is cut for them to share
	// is the engine's decision (topo.Refine). Results are identical for
	// every value >= 1, but differ from the serial engine because RNG
	// draws come from per-entity streams instead of one shared engine
	// RNG.
	Shards int
	// DisableBatch turns off same-instant delivery fusion, forcing one
	// event-loop round trip per packet. Results are byte-identical either
	// way (fusion only coalesces events already adjacent in pop order);
	// the knob exists so tests can prove that and benchmarks can measure
	// the difference. Batching also self-disables while a Tracer is
	// attached, keeping the per-arrival hook exact.
	DisableBatch bool
	// StaticLookahead forces windowed runs back to the fixed
	// min-cut-delay window width instead of the adaptive per-barrier
	// bound computed from quiescent cut links. Results are byte-identical
	// either way (windows are pure synchronization points); the knob
	// exists for A/B measurement of barrier counts.
	StaticLookahead bool
	// Fluid enables the flow-level background-traffic substrate
	// (fluid.go): aggregate flows become rate-based state on links,
	// advanced analytically between events, while packets stay exact and
	// see the fluid queues as load. Off (the default) is byte-identical
	// to the packet-only engine: no fluid state is attached to any link,
	// no rank or RNG stream is consumed, and no event is ever scheduled.
	Fluid bool
}

// DefaultConfig returns the standard simulation parameters.
func DefaultConfig() Config {
	return Config{
		QueueBytes:    64 << 10,
		SwitchLatency: time.Microsecond,
		UtilWindow:    50 * time.Millisecond,
		UtilAlpha:     0.3,
		Seed:          1,
	}
}

// Network is a running simulation instance.
type Network struct {
	// Eng is the coordinator engine: control-timescale work (tickers,
	// samplers, controllers, experiment scripting) runs here. In serial
	// mode it is also the (only) simulation engine; in windowed mode it
	// executes at barriers while the shard engines are parked, so its
	// callbacks may touch any shard's state.
	Eng *eventsim.Engine
	G   *topo.Graph
	Cfg Config

	// switches and hosts are dense arrays indexed by NodeID (IDs are
	// assigned densely at topology construction); the slot for a node of
	// the other kind is nil. Per-packet node resolution is one
	// bounds-checked slice read instead of a map access.
	switches []*dataplane.Switch
	hosts    []*Host
	links    []*linkState

	// Sharding state. Serial mode is one shardState wrapping Eng, so the
	// hot path is identical in both modes; windowed mode partitions the
	// topology and gives every shard its own engine, pools, and counters.
	windowed bool
	shards   []*shardState
	shardOf  []int32 // NodeID -> shard index
	group    *eventsim.ShardGroup
	part     *topo.Shards

	// Windowed-mode determinism state: per-switch RNG streams, so pipeline
	// randomness is a pure function of per-entity history
	// (partition-invariant).
	swRNG []*rand.Rand
	// nextOwnerKey mints merge-rank keys for traffic sources; node and
	// link keys are fixed, so source keys start above both ranges.
	nextOwnerKey uint64

	// fluidFlows lists every fluid background flow in creation order
	// (fluid.go); empty unless Cfg.Fluid is set and flows were created.
	fluidFlows []*FluidFlow

	// utilTicker is the link-utilization window ticker created by New; it
	// survives Reset (re-armed there, so its event occupies the same
	// coordinator sequence slot a fresh build would give it).
	utilTicker *eventsim.Ticker

	// Tracer, if set, observes every packet arrival at a node (debugging
	// and assertion hooks in tests). Attaching a tracer disables packet
	// recycling so traced packets may be retained. Tracing is serial-only:
	// windowed runs would invoke it concurrently from shard goroutines.
	Tracer func(now time.Duration, at topo.NodeID, pkt *packet.Packet)
}

// New builds a network over g. Every switch node gets a dataplane switch
// with the TofinoLike budget and a base Router installed; every host node
// gets a Host runtime.
func New(g *topo.Graph, cfg Config) *Network { return newOn(g, cfg, nil) }

// newOn is New over a given partition (nil: the engine chooses). The
// partition is a performance decision no result depends on; tests pass one
// to prove that.
func newOn(g *topo.Graph, cfg Config, part *topo.Shards) *Network {
	// Zero-valued tunables take their defaults one by one; the seed, the
	// engine selection and every other field are the caller's.
	def := DefaultConfig()
	if cfg.QueueBytes == 0 {
		cfg.QueueBytes = def.QueueBytes
	}
	if cfg.SwitchLatency == 0 {
		cfg.SwitchLatency = def.SwitchLatency
	}
	if cfg.UtilWindow == 0 {
		cfg.UtilWindow = def.UtilWindow
	}
	if cfg.UtilAlpha == 0 {
		cfg.UtilAlpha = def.UtilAlpha
	}
	n := &Network{
		Eng:      eventsim.New(cfg.Seed),
		G:        g,
		Cfg:      cfg,
		switches: make([]*dataplane.Switch, len(g.Nodes)),
		hosts:    make([]*Host, len(g.Nodes)),
	}
	for _, node := range g.Nodes {
		switch node.Kind {
		case topo.Switch:
			sw := dataplane.NewSwitch(node.ID, dataplane.TofinoLike())
			if err := sw.Install(dataplane.Program{
				PPM:      dataplane.NewRouter(node.ID),
				Priority: dataplane.PriRouting,
				Modes:    1,
			}); err != nil {
				panic(fmt.Sprintf("netsim: installing base router: %v", err))
			}
			n.switches[node.ID] = sw
		case topo.Host:
			n.hosts[node.ID] = newHost(n, node.ID)
		}
	}
	n.setupShards(cfg, part)
	// Links resolve their owning shard at construction, so shards must
	// exist first.
	n.links = make([]*linkState, len(g.Links))
	for i := range g.Links {
		n.links[i] = newLinkState(n, g.Links[i])
	}
	// One ticker advances all link-utilization windows (coordinator work:
	// it reads per-link byte counters the shards wrote before the barrier).
	// This is the first event ever scheduled on the coordinator engine;
	// Reset re-arms it first for the same reason.
	n.utilTicker = eventsim.NewTicker(n.Eng, cfg.UtilWindow, func() {
		for _, l := range n.links {
			l.rollWindow(cfg.UtilWindow)
		}
	})
	return n
}

// setupShards builds the shard runtime: one shardState in serial mode,
// or a partition with per-partition engines, hand-off rings, per-switch RNG
// streams, and a window scheduler with cfg.Shards workers in windowed mode.
// All mutable state is per partition, never per worker: which worker ran a
// partition in which window must be unobservable.
func (n *Network) setupShards(cfg Config, part *topo.Shards) {
	g := n.G
	n.windowed = cfg.Shards >= 1
	n.shardOf = make([]int32, len(g.Nodes))
	k := 1
	if n.windowed {
		if part == nil {
			part = topo.Refine(g, cfg.Shards)
		}
		n.part = part
		k = n.part.K
		for i, s := range n.part.Of {
			n.shardOf[i] = int32(s)
		}
	}
	n.shards = make([]*shardState, k)
	for i := range n.shards {
		sh := &shardState{n: n, idx: i, eng: n.Eng}
		if n.windowed {
			// Shard engines never draw from their own RNG (per-entity
			// streams replace it), but distinct seeds keep any future
			// misuse from aliasing across shards.
			sh.eng = eventsim.New(cfg.Seed + int64(i) + 1)
			sh.eng.RequireRank()
		}
		sh.batchDone = sh.makeBatchDone()
		n.shards[i] = sh
	}
	n.nextOwnerKey = uint64(len(g.Nodes)) + uint64(len(g.Links))
	if !n.windowed {
		return
	}
	for _, sh := range n.shards {
		// Rings appear with the cut links that use them (newLinkState):
		// a fine partition has many pairs and few neighbours.
		sh.out = make([]*handoffRing, k)
	}
	n.swRNG = make([]*rand.Rand, len(g.Nodes))
	for _, node := range g.Nodes {
		if node.Kind == topo.Switch {
			n.swRNG[node.ID] = eventsim.NewStream(cfg.Seed, uint64(node.ID))
		}
	}
	var lookahead time.Duration
	if len(n.part.CutLinks) > 0 {
		if n.part.MinCutDelayNS <= 0 {
			panic("netsim: a cut link has zero propagation delay; conservative windows need positive lookahead")
		}
		lookahead = time.Duration(n.part.MinCutDelayNS)
	}
	engines := make([]*eventsim.Engine, k)
	for i, sh := range n.shards {
		engines[i] = sh.eng
	}
	n.group = &eventsim.ShardGroup{
		Coord:     n.Eng,
		Shards:    engines,
		Workers:   cfg.Shards,
		Lookahead: lookahead,
		Exchange:  n.exchange,
	}
	if !cfg.StaticLookahead && len(n.part.CutLinks) > 0 {
		n.group.Bound = n.adaptiveBound
	}
}

// adaptiveBound computes a per-window conservative bound from the actual
// state of the cut links, instead of the static worst case base+minDelay.
// It runs at barriers (all shard state is quiescent and safe to read).
//
// Per cut link, the earliest a NEW hand-off can reach the far end:
//
//   - busy or backlogged (busyUntil > base): a packet admitted at any event
//     time t >= base leaves the serializer at or after t+tx, so arrivals
//     land beyond base+prop (tx >= 1ns). Bound: base + prop.
//   - quiescent (serializer idle by base): only an event executing
//     in the source shard can enqueue traffic, and that shard's earliest
//     pending event is at srcNext >= base, so arrivals land strictly after
//     srcNext + prop. Bound: srcNext + prop. An empty source engine
//     contributes no bound at all: nothing can run there this window, and
//     hand-offs *into* it are capped by the links they cross.
//
// Every bound is >= base + prop >= base + minDelay, so the adaptive window
// is never narrower than the static one, and > base, so the earliest event
// always fires and the loop makes progress. Hand-offs already emitted in
// earlier windows are ordinary pending events and show up in base itself.
// The coordinator is capped separately by ShardGroup.Run, which also keeps
// barrier-time traffic injection conservative. Windows are pure
// synchronization points, so widening them never changes results — only
// how many barriers a run pays for.
func (n *Network) adaptiveBound(base, horizon time.Duration) time.Duration {
	tend := horizon
	for _, lid := range n.part.CutLinks {
		ls := n.links[lid]
		prop := time.Duration(ls.link.DelayNS)
		var bound time.Duration
		if ls.busyUntil > base {
			bound = base + prop
		} else {
			srcNext, ok := ls.sh.eng.PeekAt()
			if !ok {
				continue
			}
			bound = srcNext + prop
		}
		if bound < tend {
			tend = bound
		}
	}
	return tend
}

// NewPacket returns a zeroed packet from the network's pool. Callers run
// in coordinator context (setup code, controllers at barriers); simulation
// internals executing inside a shard allocate from that shard's pool
// instead so pools stay goroutine-local.
func (n *Network) NewPacket() *packet.Packet { return n.shards[0].pool.Get() }

// PoolAt returns the packet pool of the partition that owns node id: the
// one to take a packet from when it is about to be injected at that node
// (OriginateAt, SendFromHost), so it is recycled where it was born. Like
// NewPacket it is for coordinator context; inside the pipeline a PPM uses
// dataplane.Context.Pool, which is this pool.
func (n *Network) PoolAt(id topo.NodeID) *packet.Pool { return &n.shardAt(id).pool }

// PoolStats reports packet-pool traffic summed over shards: total Get
// calls and how many had to allocate. In steady state news stops growing;
// ffbench surfaces the ratio in its JSON report.
func (n *Network) PoolStats() (gets, news uint64) {
	for _, sh := range n.shards {
		gets += sh.pool.Gets
		news += sh.pool.News
	}
	return gets, news
}

// Switch returns the dataplane switch at node id (nil for hosts and
// out-of-range ids).
func (n *Network) Switch(id topo.NodeID) *dataplane.Switch {
	if uint(id) >= uint(len(n.switches)) {
		return nil
	}
	return n.switches[id]
}

// Host returns the host runtime at node id (nil for switches and
// out-of-range ids).
func (n *Network) Host(id topo.NodeID) *Host {
	if uint(id) >= uint(len(n.hosts)) {
		return nil
	}
	return n.hosts[id]
}

// Router returns the base routing PPM of the switch at id.
func (n *Network) Router(id topo.NodeID) *dataplane.Router {
	sw := n.Switch(id)
	if sw == nil {
		return nil
	}
	r, _ := sw.Lookup("router").(*dataplane.Router)
	return r
}

// Run advances the simulation to the given horizon: serially on the
// coordinator engine, or in parallel conservative windows when sharded.
func (n *Network) Run(horizon time.Duration) {
	if n.windowed {
		if n.Tracer != nil {
			panic("netsim: Tracer is serial-only; windowed runs would invoke it from shard goroutines")
		}
		// Setup code runs in coordinator context outside any barrier, so
		// hand-offs it emitted (cross-cut traffic injection, fluid rate
		// programs) are still sitting in the rings, invisible to the
		// window-bound computation. Drain them into their destination
		// engines first — the main goroutine owns every engine here.
		n.exchange()
		n.group.Run(horizon)
		return
	}
	n.Eng.Run(horizon)
}

// Delivered returns the number of packets delivered to hosts.
func (n *Network) Delivered() uint64 {
	var t uint64
	for _, sh := range n.shards {
		t += sh.delivered
	}
	return t
}

// DropsNoRoute returns packets dropped because no route existed.
func (n *Network) DropsNoRoute() uint64 {
	var t uint64
	for _, sh := range n.shards {
		t += sh.dropsNoRoute
	}
	return t
}

// DropsQueue returns packets tail-dropped at full link queues.
func (n *Network) DropsQueue() uint64 {
	var t uint64
	for _, sh := range n.shards {
		t += sh.dropsQueue
	}
	return t
}

// DropsPipeline returns packets dropped by switch pipelines.
func (n *Network) DropsPipeline() uint64 {
	var t uint64
	for _, sh := range n.shards {
		t += sh.dropsPipeline
	}
	return t
}

// DropsDown returns packets dropped at reconfiguring switches.
func (n *Network) DropsDown() uint64 {
	var t uint64
	for _, sh := range n.shards {
		t += sh.dropsDown
	}
	return t
}

// DropsLoss returns packets dropped by injected random loss.
func (n *Network) DropsLoss() uint64 {
	var t uint64
	for _, sh := range n.shards {
		t += sh.dropsLoss
	}
	return t
}

// LinkLedger returns the link layer's two ends: packets offered to any
// link and packets that reached a link's far end. At every barrier
// offered == DropsLoss + DropsQueue + arrived + packets still on a link.
func (n *Network) LinkLedger() (offered, arrived uint64) {
	for _, sh := range n.shards {
		offered += sh.offered
		arrived += sh.arrived
	}
	return offered, arrived
}

// EventsFired returns the total simulation events executed across the
// coordinator and every shard engine. Fused deliveries count one event
// apiece (PopAdjacent increments the popping engine's counter), so the
// total is identical batched or unbatched — it measures workload, and
// dividing it by wall time gives the engine's events/sec throughput.
func (n *Network) EventsFired() uint64 {
	t := n.Eng.Fired()
	if n.windowed {
		for _, sh := range n.shards {
			t += sh.eng.Fired()
		}
	}
	return t
}

// PacketsProcessed returns the total switch pipeline passes (every packet
// entering a switch pipeline counts once, at every switch it traverses).
func (n *Network) PacketsProcessed() uint64 {
	var t uint64
	for _, sw := range n.switches {
		if sw != nil {
			t += sw.Processed
		}
	}
	return t
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.Eng.Now() }

// LinkLoad returns the smoothed utilization (0..1+) of a link.
func (n *Network) LinkLoad(l topo.LinkID) float64 { return n.links[l].smoothedUtil.Value() }

// LinkLoadInstant returns utilization measured over the last completed
// window only.
func (n *Network) LinkLoadInstant(l topo.LinkID) float64 { return n.links[l].lastWindowUtil }

// LinkStats returns cumulative counters for a link.
func (n *Network) LinkStats(l topo.LinkID) (sentPkts, sentBytes, drops uint64) {
	ls := n.links[l]
	ls.drain(ls.sh.eng.Now())
	return ls.sentPkts, ls.sentBytes, ls.drops
}

// QueueDepth returns the bytes currently queued on a link.
func (n *Network) QueueDepth(l topo.LinkID) int {
	ls := n.links[l]
	ls.drain(ls.sh.eng.Now())
	return ls.queuedBytes
}

// SetLinkLoss injects random loss on a directed link (fault injection for
// FEC and fault-tolerance experiments). p is the per-packet drop
// probability in [0,1]. Windowed runs draw loss from a per-link stream so
// the draw sequence depends only on the link's own traffic.
func (n *Network) SetLinkLoss(l topo.LinkID, p float64) {
	ls := n.links[l]
	ls.lossRate = p
	if n.windowed && p > 0 && ls.rng == nil {
		ls.rng = eventsim.NewStream(n.Cfg.Seed, uint64(len(n.G.Nodes))+uint64(l))
	}
}

// Enqueue places a packet on a directed link's queue, dropping it if the
// queue is full. This is the only way packets move between nodes.
func (n *Network) Enqueue(l topo.LinkID, pkt *packet.Packet) {
	n.links[l].enqueue(pkt)
}

// OriginateAt injects a packet at a switch as locally originated: it runs
// the full pipeline (so routing picks the egress) with InLink = -1.
// Controllers and boosters use this to send probes and control messages.
func (n *Network) OriginateAt(sw topo.NodeID, pkt *packet.Packet) {
	n.processAtSwitch(sw, pkt, -1, 0)
}

// SendFromHost transmits a packet from a host onto its access link.
func (n *Network) SendFromHost(h topo.NodeID, pkt *packet.Packet) {
	host := n.Host(h)
	if host == nil {
		panic(fmt.Sprintf("netsim: node %d is not a host", h))
	}
	out := n.G.Out(h)
	if len(out) == 0 {
		panic(fmt.Sprintf("netsim: host %d has no access link", h))
	}
	n.Enqueue(out[0], pkt)
}

// classDeliver tags link-delivery events for batch fusion: when a run of
// them is adjacent at the head of an engine (same instant, consecutive
// ranks), deliverRun pops the whole run and processes the packets as one
// batch. Local and cross-shard deliveries are the same event (exchange).
const classDeliver = 1

// deliverRun fires when the head-of-line packet of ls reaches the far end.
// It pops that packet and then fuses every delivery event queued at the
// same instant directly behind it in the engine (they would be popped next
// anyway, in exactly this order), amortizing the event-loop round trip and
// the per-switch pipeline entry over the run. With batching disabled — by
// config, or implicitly by an attached Tracer — or when no same-instant
// delivery is pending, it reduces to the plain one-packet arrival.
//
//ffvet:hotpath
func (n *Network) deliverRun(ls *linkState) {
	if n.Cfg.DisableBatch || n.Tracer != nil {
		n.arrive(ls.link.ID, ls.inflight.pop())
		return
	}
	sh := n.shards[ls.dstShard]
	key, ok := sh.eng.PopAdjacent(classDeliver)
	if !ok {
		n.arrive(ls.link.ID, ls.inflight.pop())
		return
	}
	b := &sh.batch
	b.Add(ls.inflight.pop(), ls.link.ID)
	for {
		ls2 := n.links[key]
		b.Add(ls2.inflight.pop(), ls2.link.ID)
		key, ok = sh.eng.PopAdjacent(classDeliver)
		if !ok {
			break
		}
	}
	n.drainBatch(sh)
	b.Reset()
}

// drainBatch plays a fused run of arrivals in pop order: hosts receive
// singly, and maximal spans of consecutive packets bound for the same
// switch run through the batched pipeline entry. Per-packet side effects
// (counters, emissions, forwarding) happen in exactly the order the serial
// event loop would produce, so fusion is invisible to every observer.
//
//ffvet:hotpath
func (n *Network) drainBatch(sh *shardState) {
	pkts, ins := sh.batch.Pkts, sh.batch.In
	sh.arrived += uint64(len(pkts))
	for i := 0; i < len(pkts); {
		in := ins[i]
		to := n.G.Links[in].To
		if host := n.hosts[to]; host != nil {
			pkt := pkts[i]
			sh.delivered++
			host.receive(pkt, in)
			if host.sink == nil {
				sh.freePacket(pkt)
			}
			i++
			continue
		}
		j := i + 1
		for j < len(pkts) && n.G.Links[ins[j]].To == to {
			j++
		}
		n.processSwitchRun(sh, to, i, j)
		i = j
	}
}

// processSwitchRun pushes batch entries [lo, hi) — all arrivals at switch
// id — through the pipeline with one context setup for the whole span.
// The per-packet epilogue runs via sh.batchDone before the next packet
// starts, which is what keeps the fused run byte-identical to hi-lo
// separate arrivals.
func (n *Network) processSwitchRun(sh *shardState, id topo.NodeID, lo, hi int) {
	sw := n.switches[id]
	if sw == nil {
		panic(fmt.Sprintf("netsim: node %d is not a switch", id))
	}
	ctx := sh.getCtx()
	ctx.Now = sh.eng.Now()
	ctx.Switch = id
	ctx.Pool = &sh.pool
	if n.windowed {
		ctx.RNG = n.swRNG[id]
	} else {
		ctx.RNG = n.Eng.RNG()
	}
	sh.batchCtx = ctx
	sh.batchSwitch = id
	sw.ProcessBatch(ctx, &sh.batch, lo, hi, sh.batchDone)
	sh.batchCtx = nil
	sh.putCtx(ctx)
}

// arrive handles a packet reaching the far end of a link. It executes in
// the destination node's shard.
func (n *Network) arrive(l topo.LinkID, pkt *packet.Packet) {
	to := n.G.Links[l].To
	sh := n.shards[n.shardOf[to]]
	sh.arrived++
	if n.Tracer != nil {
		n.Tracer(sh.eng.Now(), to, pkt)
	}
	if host := n.hosts[to]; host != nil {
		sh.delivered++
		host.receive(pkt, l)
		// End of the packet's life: handlers and sinks run synchronously
		// inside receive. Hosts with an OnSink observer opt out of
		// recycling, since sinks (tests, examples) may retain packets.
		if host.sink == nil {
			sh.freePacket(pkt)
		}
		return
	}
	n.processAtSwitch(to, pkt, l, 0)
}

// maxLocalHops bounds recursion when emissions re-enter the local pipeline
// (e.g. an ICMP generated for an expiring packet being routed out).
const maxLocalHops = 4

func (n *Network) processAtSwitch(id topo.NodeID, pkt *packet.Packet, in topo.LinkID, depth int) {
	sh := n.shards[n.shardOf[id]]
	if depth > maxLocalHops {
		sh.dropsPipeline++
		sh.freePacket(pkt)
		return
	}
	sw := n.switches[id]
	if sw == nil {
		panic(fmt.Sprintf("netsim: node %d is not a switch", id))
	}
	if sw.Reconfiguring {
		sh.dropsDown++
		sh.freePacket(pkt)
		return
	}
	ctx := sh.getCtx()
	ctx.Now = sh.eng.Now()
	ctx.Switch = id
	ctx.InLink = in
	ctx.Pkt = pkt
	ctx.Pool = &sh.pool
	if n.windowed {
		// Per-switch stream: pipeline randomness depends only on this
		// switch's packet history, never on the partition.
		ctx.RNG = n.swRNG[id]
	} else {
		ctx.RNG = n.Eng.RNG()
	}
	ctx.Modes = sw.Modes()
	ctx.OutLink = -1
	verdict := sw.Process(ctx)
	// Emissions are dispatched regardless of the main packet's fate.
	for _, em := range ctx.Emissions() {
		n.dispatchEmission(id, em, in, depth)
	}
	out := ctx.OutLink
	sh.putCtx(ctx)
	switch verdict {
	case dataplane.Drop:
		sh.dropsPipeline++
		sh.freePacket(pkt)
		return
	case dataplane.Consume:
		sh.freePacket(pkt)
		return
	}
	if out < 0 {
		sh.dropsNoRoute++
		sh.freePacket(pkt)
		return
	}
	if n.G.Links[out].From != id {
		panic(fmt.Sprintf("netsim: switch %d chose egress link %d owned by node %d",
			id, out, n.G.Links[out].From))
	}
	// Straight into the egress FIFO; the fixed pipeline latency is paid
	// behind the serializer (linkState.extra).
	n.links[out].enqueue(pkt)
}

func (n *Network) dispatchEmission(at topo.NodeID, em dataplane.Emission, in topo.LinkID, depth int) {
	switch {
	case em.Via >= 0:
		n.Enqueue(em.Via, em.Pkt)
	case em.Pkt.Proto == packet.ProtoProbe:
		n.flood(at, em.Pkt, in)
	default:
		// Locally originated: run the pipeline to route it.
		n.processAtSwitch(at, em.Pkt, -1, depth+1)
	}
}

// flood sends a probe out of every switch-to-switch link of at except the
// ingress. Every target but the last gets a pooled clone; the last takes pkt
// itself (its emitter built it for this and keeps no reference), so N
// targets cost N-1 clones, in unchanged order, and a flood with nowhere to
// go ends the packet's life here.
func (n *Network) flood(at topo.NodeID, pkt *packet.Packet, in topo.LinkID) {
	sh := n.shardAt(at)
	last := topo.LinkID(-1)
	for _, lid := range n.G.Out(at) {
		if lid == in {
			continue
		}
		l := n.G.Links[lid]
		if in >= 0 && n.G.Links[in].Reverse == lid {
			continue
		}
		if n.G.Nodes[l.To].Kind != topo.Switch {
			continue
		}
		if last >= 0 {
			n.Enqueue(last, sh.pool.Clone(pkt))
		}
		last = lid
	}
	if last < 0 {
		sh.freePacket(pkt)
		return
	}
	n.Enqueue(last, pkt)
}

// SwitchLinks returns the IDs of a switch's outgoing switch-to-switch links.
func (n *Network) SwitchLinks(id topo.NodeID) []topo.LinkID {
	var out []topo.LinkID
	for _, lid := range n.G.Out(id) {
		if n.G.Nodes[n.G.Links[lid].To].Kind == topo.Switch {
			out = append(out, lid)
		}
	}
	return out
}
