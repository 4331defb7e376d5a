package netsim

import (
	"fmt"
	"sync/atomic"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/eventsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// shardState is the per-shard slice of a Network's mutable simulation
// state: an engine, the hot-path pools, and the drop/delivery counters.
// Everything here is touched only by the shard's goroutine during a
// window, or by the main goroutine at a barrier — never both at once.
// A serial Network is exactly one shardState whose engine is n.Eng.
type shardState struct {
	n   *Network
	idx int
	eng *eventsim.Engine

	pool    packet.Pool
	ctxFree []*dataplane.Context

	// Batched-delivery scratch state. batch collects a fused run of
	// same-instant arrivals (deliverRun); batchCtx/batchSwitch expose the
	// span's pipeline context to batchDone, the preallocated per-packet
	// epilogue closure ProcessBatch invokes between packets.
	batch       dataplane.Batch
	batchCtx    *dataplane.Context
	batchSwitch topo.NodeID
	batchDone   func(k int, v dataplane.Verdict)

	// out[d] carries hand-offs to shard d; nil where no link crosses from
	// this shard into d, and in serial mode.
	out []*handoffRing

	// Drop/delivery accounting. Global totals are sums over shards, read
	// at barriers (summing commutes, so totals are partition-invariant).
	dropsNoRoute  uint64
	dropsQueue    uint64
	dropsPipeline uint64
	dropsDown     uint64
	dropsLoss     uint64
	delivered     uint64
	// offered counts every packet handed to a link of this shard, arrived
	// every packet that reached the far end of a link into this shard.
	offered uint64
	arrived uint64
}

// after schedules fn on the shard's engine: ranked in windowed mode (merge
// order must not depend on the partition), plain in serial mode (byte-
// compatible with the pre-sharding event order).
func (sh *shardState) after(d time.Duration, o *eventsim.RankOwner, fn func()) *eventsim.Event {
	if sh.n.windowed {
		return sh.eng.AfterRank(d, o.Next(), fn)
	}
	return sh.eng.After(d, fn)
}

// makeBatchDone builds the shard's per-packet batch epilogue: the exact
// tail of processAtSwitch (emission dispatch, verdict accounting, the
// egress enqueue), applied to batch entry k. ProcessBatch calls it
// after each packet's pipeline pass and before the next packet's, so side
// effects land in serial order.
func (sh *shardState) makeBatchDone() func(int, dataplane.Verdict) {
	n := sh.n
	return func(k int, v dataplane.Verdict) {
		pkt := sh.batch.Pkts[k]
		if v == dataplane.Down {
			sh.dropsDown++
			sh.freePacket(pkt)
			return
		}
		ctx := sh.batchCtx
		id := sh.batchSwitch
		if ems := ctx.Emissions(); len(ems) > 0 {
			in := sh.batch.In[k]
			//ffvet:hotpath
			for _, em := range ems {
				n.dispatchEmission(id, em, in, 0)
			}
			ctx.ClearEmissions()
		}
		out := ctx.OutLink
		switch v {
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
		n.links[out].enqueue(pkt)
	}
}

// freePacket recycles a packet into this shard's pool (recycling is off
// while a Tracer is attached, since trace hooks may retain packets).
func (sh *shardState) freePacket(p *packet.Packet) {
	if sh.n.Tracer != nil {
		return
	}
	sh.pool.Put(p)
}

// getCtx returns a reset pipeline context from the shard's pool.
func (sh *shardState) getCtx() *dataplane.Context {
	if ln := len(sh.ctxFree); ln > 0 {
		ctx := sh.ctxFree[ln-1]
		sh.ctxFree[ln-1] = nil
		sh.ctxFree = sh.ctxFree[:ln-1]
		return ctx
	}
	return &dataplane.Context{}
}

func (sh *shardState) putCtx(ctx *dataplane.Context) {
	ctx.Reset()
	sh.ctxFree = append(sh.ctxFree, ctx)
}

// handoff is a packet crossing a shard boundary: it must appear in the
// destination engine at exactly (at, rank), the same position it would
// occupy in any other partitioning of the same simulation. A nil pkt marks
// a fluid rate update instead (fluid.go): link is then the update's target
// link and fci/frate carry the contribution index and new rate, so both
// substrates cross cuts through the same rings under the same barrier
// protocol.
type handoff struct {
	at    time.Duration
	rank  uint64
	link  topo.LinkID
	pkt   *packet.Packet
	fci   int32
	frate float64
}

// handoffRing is a single-producer/single-consumer ring for one directed
// shard pair. The producer is the source shard's goroutine (pushing during
// a window); the consumer is the main goroutine (draining at a barrier,
// when the producer is parked). The fixed ring absorbs steady-state
// traffic without allocation; bursts spill to a producer-local overflow
// slice that the barrier drain folds back in, preserving push order.
type handoffRing struct {
	buf      []handoff // power-of-two
	head     atomic.Uint64
	tail     atomic.Uint64
	overflow []handoff
	spilling bool
}

const handoffRingSize = 1024

func newHandoffRing() *handoffRing {
	return &handoffRing{buf: make([]handoff, handoffRingSize)}
}

func (r *handoffRing) push(h handoff) {
	// Once a window spills, later pushes spill too: the ring cannot free
	// up mid-window (the consumer only drains at barriers), and keeping
	// the ring prefix strictly older than the overflow preserves order.
	if r.spilling {
		r.overflow = append(r.overflow, h)
		return
	}
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		r.spilling = true
		r.overflow = append(r.overflow, h)
		return
	}
	r.buf[t&uint64(len(r.buf)-1)] = h
	r.tail.Store(t + 1)
}

// drain empties the ring (then the overflow) in push order. Barrier-only.
func (r *handoffRing) drain(fn func(handoff)) {
	h, t := r.head.Load(), r.tail.Load()
	for ; h < t; h++ {
		i := h & uint64(len(r.buf)-1)
		fn(r.buf[i])
		r.buf[i].pkt = nil
	}
	r.head.Store(h)
	for i := range r.overflow {
		fn(r.overflow[i])
		r.overflow[i].pkt = nil
	}
	r.overflow = r.overflow[:0]
	r.spilling = false
}

// exchange drains every hand-off ring into the destination engines. It
// runs at barriers, so all engines and pools are safe to touch. Injection
// uses each hand-off's exact (at, rank); pop order then depends only on
// those keys, not on drain order, so iteration order here is not
// semantically load-bearing (it is fixed anyway).
func (n *Network) exchange() {
	for _, src := range n.shards {
		for d, ring := range src.out {
			if ring == nil {
				continue
			}
			dst := n.shards[d]
			ring.drain(func(h handoff) {
				if h.pkt == nil {
					// Fluid rate update crossing the cut: schedule the
					// application at its exact (at, rank) like any packet
					// hand-off. Updates are rate-change-frequency events,
					// so the closure allocation is off the hot path.
					link, ci, rate := h.link, int(h.fci), h.frate
					dst.eng.ScheduleRank(h.at, h.rank, func() {
						n.applyFluidRate(link, ci, rate)
					})
					return
				}
				// From here on the hand-off is what a local enqueue leaves
				// behind: the packet on the link's inflight ring and the
				// link's delivery event at (at, rank). A link's arrival
				// times strictly increase and only this drain ever pushes on
				// a cut link's ring (its source shard never touches it), so
				// the ring head is always the packet the next event is for.
				ls := n.links[h.link]
				ls.inflight.push(h.pkt)
				ev := dst.eng.ScheduleRank(h.at, h.rank, ls.deliver)
				ev.Class, ev.Key = classDeliver, int32(h.link)
			})
		}
	}
	n.levelPools()
}

// Pool levelling thresholds: a pool below poolLow free packets is topped up
// from one holding more than poolHigh.
const (
	poolLow  = 256
	poolHigh = 1024
)

// levelPools tops up the emptiest packet pool from the fullest. A packet is
// allocated from the sending partition's pool and freed into the receiving
// one's, and attack traffic is one-way, so without this pools drain one
// way: the sender allocates fresh packets every rep of a warm fabric while
// the receiver's free list grows without bound. Barrier-only; which Packet
// object a Get returns is unobservable (Put zeroes it), so levelling cannot
// change a result.
func (n *Network) levelPools() {
	poor, rich := &n.shards[0].pool, &n.shards[0].pool
	for _, sh := range n.shards[1:] {
		if f := sh.pool.Free(); f < poor.Free() {
			poor = &sh.pool
		} else if f > rich.Free() {
			rich = &sh.pool
		}
	}
	if poor.Free() < poolLow && rich.Free() > poolHigh {
		rich.MoveTo(poor, (rich.Free()-poor.Free())/2)
	}
}

// shardAt returns the shard owning a node (the only shard whose goroutine
// executes that node's packets).
func (n *Network) shardAt(id topo.NodeID) *shardState { return n.shards[n.shardOf[id]] }

// newRankOwner mints a merge-rank source with the next unused entity key.
// Creation order is part of the simulation's deterministic setup, so keys
// are identical across runs and shard counts.
func (n *Network) newRankOwner() eventsim.RankOwner {
	k := n.nextOwnerKey
	n.nextOwnerKey++
	return eventsim.NewRankOwner(k)
}

// Shards returns the number of shards (1 in serial mode).
func (n *Network) Shards() int { return len(n.shards) }

// Windowed reports whether the network runs the windowed parallel engine.
func (n *Network) Windowed() bool { return n.windowed }

// Lookahead returns the conservative window width (0 in serial mode).
func (n *Network) Lookahead() time.Duration {
	if n.group == nil {
		return 0
	}
	return n.group.Lookahead
}

// Windows returns the number of barrier windows executed so far.
func (n *Network) Windows() uint64 {
	if n.group == nil {
		return 0
	}
	return n.group.Windows
}

// ShardOf returns the shard index owning a node (0 in serial mode).
func (n *Network) ShardOf(id topo.NodeID) int { return int(n.shardOf[id]) }
