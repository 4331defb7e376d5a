package netsim

import (
	"fastflex/internal/eventsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// Reset returns a fully built network to its pre-run state, re-seeded at
// seed, in O(touched state): engines are cleared, per-entity RNG streams and
// rank owners are rewound to their (seed, key)-derived origins, link and
// host runtime state is zeroed, and the utilization ticker is re-armed. A
// subsequent run is byte-identical to one on a freshly built network with
// the same config and seed — that property is pinned by experiment's
// reset-vs-fresh goldens.
//
// Reset covers exactly the state netsim.New creates. Anything layered on
// top by a scenario — traffic sources, fluid flows, samplers, loss
// injection, sinks, handlers — is dropped here and must be recreated by the
// caller in the same order a fresh run would create it, so that sources
// draw the same keys from the rewound nextOwnerKey. Switch pipeline state
// is NOT touched; callers that own dataplane programs reset them separately
// (core.Fabric.Reset).
//
// Packets on a link or in a hand-off ring at reset are recycled into the
// pool of the shard that holds them; pending events are dropped to the
// garbage collector, never recycled, because their owners may still hold
// handles.
func (n *Network) Reset(seed int64) {
	n.Cfg.Seed = seed
	n.Eng.Reset(seed)
	for i, sh := range n.shards {
		// Mirrors setupShards: shard engines get distinct derived seeds even
		// though per-entity streams mean they never draw.
		sh.eng.Reset(seed + int64(i) + 1)
		sh.reset()
	}
	for _, node := range n.G.Nodes {
		if node.Kind == topo.Switch {
			n.swRNG[node.ID].Seed(eventsim.StreamSeed(seed, uint64(node.ID)))
		}
	}
	n.nextOwnerKey = uint64(len(n.G.Nodes)) + uint64(len(n.G.Links))
	for _, ls := range n.links {
		ls.reset(seed)
	}
	for _, h := range n.hosts {
		if h != nil {
			h.reset()
		}
	}
	n.fluidFlows = nil
	n.group.Windows = 0
	for s := range n.coord {
		n.coord[s].Rewind()
	}
	n.utilTicker.Rearm()
}

// reset rewinds one shard's runtime: counters, batch scratch, and hand-off
// rings. The packet pool keeps its free list (warm reuse is the point) but
// restarts its statistics; the context free list survives as-is since
// pooled entries are already quiescent.
func (sh *shardState) reset() {
	sh.pool.Gets, sh.pool.News = 0, 0
	sh.batch.Reset()
	sh.batchCtx = nil
	sh.batchSwitch = 0
	for _, r := range sh.out {
		if r != nil {
			r.reset(&sh.pool)
		}
	}
	sh.dropsNoRoute = 0
	sh.dropsQueue = 0
	sh.dropsPipeline = 0
	sh.dropsDown = 0
	sh.dropsLoss = 0
	sh.delivered = 0
	sh.offered, sh.arrived = 0, 0
}

// reset empties a hand-off ring, recycling the packets still inside into
// pool. Barrier-quiescent only (the producer goroutine must be parked, which
// is always true between runs).
func (r *handoffRing) reset(pool *packet.Pool) {
	r.drain(func(h handoff) { pool.Put(h.pkt) })
	r.head.Store(0)
	r.tail.Store(0)
}

// reset returns a link to its just-built state: queued and in-flight
// packets go back to the owning shard's pool, counters and the utilization
// estimator zero, the rank stream rewinds to its link-keyed origin, and any
// loss stream is re-seeded in place (state-identical to the stream a fresh
// SetLinkLoss would create). Fluid state detaches entirely — packet-only
// runs on a warm network stay byte-identical to fresh builds.
func (ls *linkState) reset(seed int64) {
	for ls.inflight.len() > 0 {
		ls.sh.pool.Put(ls.inflight.pop())
	}
	ls.lossRate = 0
	ls.queuedBytes = 0
	ls.busyUntil = 0
	ls.waiting.head, ls.waiting.n = 0, 0
	ls.lastSize, ls.lastTx = 0, 0
	ls.sentPkts, ls.sentBytes = 0, 0
	ls.rank = eventsim.NewRankOwner(uint64(len(ls.net.G.Nodes)) + uint64(ls.link.ID))
	if ls.rng != nil {
		ls.rng.Seed(eventsim.StreamSeed(seed, uint64(len(ls.net.G.Nodes))+uint64(ls.link.ID)))
	}
	ls.drops = 0
	ls.fluid = nil
	ls.windowBytes = 0
	ls.lastWindowUtil = 0
	ls.smoothedUtil.Reset()
}

// reset restores a host to its just-built state. Receive-stat entries keep
// their identity (zeroed, not dropped) so re-runs allocate nothing for
// senders seen before; handlers and sinks are scenario state and detach.
func (h *Host) reset() {
	for _, st := range h.recv {
		if st != nil {
			st.bytes, st.pkts = 0, 0
		}
	}
	clear(h.recvOther)
	h.lastSrc, h.lastStat = 0, nil
	clear(h.icmpHandlers)
	h.nextICMPID = 0
	clear(h.ackHandlers)
	h.sink = nil
}
