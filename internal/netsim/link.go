package netsim

import (
	"math/rand"
	"time"

	"fastflex/internal/eventsim"
	"fastflex/internal/packet"
	"fastflex/internal/sketch"
	"fastflex/internal/topo"
)

// ring is a power-of-two FIFO ring, grown on demand. In steady state
// push/pop touch only the preexisting backing array, which is what makes
// link forwarding allocation-free.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) len() int { return r.n }

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func (r *ring[T]) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 16
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

// txWait is one admitted packet whose service has not started yet: it
// occupies size bytes of the link buffer until virtual time start.
type txWait struct {
	start time.Duration
	size  int
}

// linkState is the runtime of one directed link: a store-and-forward
// transmitter with a finite tail-drop FIFO buffer in closed form, plus
// utilization accounting over rolling windows. A FIFO's departure time is
// known at admission, so a packet-hop costs one event — the far-end
// delivery — and the buffer is a ring of service-start times drained lazily
// by whoever looks at the link next (DESIGN.md "Closed-form FIFO link").
type linkState struct {
	// The fields enqueue touches per packet sit together at the top of the
	// struct: the admission check, buffer accounting, and the
	// serialization-delay memo then share a cache line or two instead of
	// faulting across the whole struct.
	net *Network
	// lossRate is an artificial random-loss probability (fault
	// injection for FEC and fault-tolerance experiments); enqueue checks
	// it on every packet.
	lossRate    float64
	queuedBytes int
	// busyUntil is when the serializer finishes the last admitted packet;
	// the link is idle once the clock reaches it.
	busyUntil time.Duration
	// extra is what a packet still pays after leaving the serializer:
	// propagation, plus the fixed pipeline latency of the switch that
	// emitted it. One constant per link keeps deliveries FIFO.
	extra time.Duration

	// Serialization-delay memo: traffic is dominated by a handful of
	// packet sizes, so the float division in enqueue is cached per size.
	// Same inputs give the same bits, so no timestamp can change.
	lastSize int
	lastTx   time.Duration

	waiting  ring[txWait]         // admitted, service not yet started (buffer occupancy)
	inflight ring[*packet.Packet] // admitted, not yet delivered, in delivery order

	sentPkts  uint64
	sentBytes uint64

	link topo.Link

	// sh is the shard owning the link (its From node's shard); every
	// enqueue on this link executes there. cross marks links whose far end
	// lives in a different shard: their deliveries travel through the
	// hand-off ring to dstShard instead of the local engine.
	sh       *shardState
	dstShard int
	cross    bool
	// rank mints this link's merge ranks: one per admitted packet, local
	// or cross-shard, so the stream is identical however the topology is
	// partitioned.
	rank eventsim.RankOwner
	// rng is the per-link loss stream, created on first SetLinkLoss.
	rng *rand.Rand

	// deliver is the link's preallocated delivery callback, so per-packet
	// scheduling closes over nothing.
	deliver func()

	drops uint64

	// fluid is the link's aggregate background-traffic state (fluid.go),
	// nil unless a fluid flow crosses the link — so packet-only runs pay
	// exactly one nil check per touch point and nothing else.
	fluid *fluidLink

	windowBytes    uint64
	lastWindowUtil float64
	smoothedUtil   *sketch.EWMA
}

func newLinkState(n *Network, l topo.Link) *linkState {
	ls := &linkState{net: n, link: l, smoothedUtil: sketch.NewEWMA(n.Cfg.UtilAlpha)}
	ls.sh = n.shards[n.shardOf[l.From]]
	ls.dstShard = int(n.shardOf[l.To])
	ls.cross = ls.sh.idx != ls.dstShard
	if ls.cross && ls.sh.out[ls.dstShard] == nil {
		ls.sh.out[ls.dstShard] = newHandoffRing()
	}
	ls.rank = eventsim.NewRankOwner(uint64(len(n.G.Nodes)) + uint64(l.ID))
	ls.extra = time.Duration(l.DelayNS)
	if n.switches[l.From] != nil {
		ls.extra += n.Cfg.SwitchLatency
	}
	// Arrivals are FIFO: service times chain through busyUntil and every
	// packet adds the same extra delay, so the earliest-scheduled delivery
	// is always the head of the inflight ring. deliverRun pops the head and
	// then fuses any same-instant delivery events queued right behind this
	// one (see network.go).
	ls.deliver = func() {
		ls.net.deliverRun(ls)
	}
	return ls
}

// drain retires every waiting entry whose service has started by now: its
// bytes leave the buffer and count as sent in the utilization window open
// at that instant — exactly what an event at the service-start time would
// have done. Everything that reads occupancy or sent counters drains first.
func (ls *linkState) drain(now time.Duration) {
	w := &ls.waiting
	for w.n > 0 && w.buf[w.head].start <= now {
		size := w.pop().size
		ls.queuedBytes -= size
		ls.countSent(size)
	}
}

func (ls *linkState) countSent(size int) {
	ls.sentPkts++
	ls.sentBytes += uint64(size)
	ls.windowBytes += uint64(size)
}

// drop accounts a packet refused by this link and recycles it.
func (ls *linkState) drop(counter *uint64, pkt *packet.Packet) {
	ls.drops++
	*counter++
	ls.sh.freePacket(pkt)
}

// enqueue admits a packet to the FIFO or tail-drops it, and schedules the
// hop's only event: the delivery at the far end. It executes in ls.sh (the
// link's From-side shard), or on the main goroutine at a barrier when the
// coordinator injects traffic.
//
//ffvet:hotpath
func (ls *linkState) enqueue(pkt *packet.Packet) {
	sh := ls.sh
	sh.offered++
	if ls.lossRate > 0 && ls.rng.Float64() < ls.lossRate {
		ls.drop(&sh.dropsLoss, pkt)
		return
	}
	now := sh.eng.Now()
	ls.drain(now)
	size := pkt.Len()
	fl := ls.fluid
	if fl != nil {
		// The buffer is shared with the fluid backlog: foreground packets
		// tail-drop against the bytes background traffic has already
		// claimed. Deterministic — occupancy is analytic, no RNG draw.
		fl.advance(now)
		if float64(ls.queuedBytes+size)+fl.q > float64(ls.net.Cfg.QueueBytes) {
			ls.drop(&sh.dropsQueue, pkt)
			return
		}
	} else if ls.queuedBytes+size > ls.net.Cfg.QueueBytes {
		ls.drop(&sh.dropsQueue, pkt)
		return
	}
	tx := ls.lastTx
	if size != ls.lastSize {
		tx = time.Duration(float64(size*8) / ls.link.BitsPerSec * float64(time.Second))
		if tx <= 0 {
			tx = time.Nanosecond
		}
		ls.lastSize, ls.lastTx = size, tx
	}
	if fl != nil {
		// Fluid load is sampled at admission. For a packet that waits this
		// is the FIFO-correct instant (bytes arriving later queue behind
		// it); for one that finds the link idle it is its service start.
		if fl.q > 0 {
			// FIFO wait behind the existing backlog: the queue drains at
			// full capacity and bytes arriving later join behind this
			// packet, so the wait is exactly q/C. The serializer stays
			// busy for the wait too, which is the shared-capacity effect.
			tx += time.Duration(fl.q / fl.cap * 1e9)
		} else if fl.in > 0 {
			// Empty fluid queue but live background load: in the packet
			// world this link would still hold a steady-state backlog of
			// background frames, throttling sustained foreground traffic
			// to the residual capacity C-F. Serve at that rate (processor
			// sharing), floored at 1% of capacity so a momentary F >= C
			// (the queue is about to grow) stays finite.
			resid := fl.cap - fl.in
			if resid < fl.cap*0.01 {
				resid = fl.cap * 0.01
			}
			if rtx := time.Duration(float64(size) / resid * 1e9); rtx > tx {
				tx = rtx
			}
		}
	}
	if ls.busyUntil > now {
		ls.waiting.push(txWait{start: ls.busyUntil, size: size})
		ls.queuedBytes += size
		ls.busyUntil += tx
	} else {
		ls.countSent(size)
		ls.busyUntil = now + tx
	}
	at := ls.busyUntil + ls.extra
	if ls.cross {
		// Hand the delivery to the far shard at its exact merge position.
		// tx >= 1ns plus prop >= the group lookahead puts the arrival
		// strictly beyond the current window, which is what makes the
		// barrier protocol conservative.
		sh.out[ls.dstShard].push(handoff{at: at, rank: ls.rank.Next(), link: ls.link.ID, pkt: pkt})
		return
	}
	ls.inflight.push(pkt)
	ev := sh.after(at-now, &ls.rank, ls.deliver)
	ev.Class, ev.Key = classDeliver, int32(ls.link.ID)
}

// rollWindow closes the current utilization window. Fluid bytes served in
// the window count toward utilization exactly like transmitted packets, so
// boosters keyed on LinkLoad see background load they cannot packet-count.
func (ls *linkState) rollWindow(window time.Duration) {
	ls.drain(ls.sh.eng.Now())
	capacity := ls.link.BitsPerSec * window.Seconds()
	bits := float64(ls.windowBytes * 8)
	if fl := ls.fluid; fl != nil {
		// Runs at a barrier (the coordinator ticker), where every engine's
		// clock agrees, so advancing here closes the window exactly.
		fl.advance(fl.eng().Now())
		bits += float64(fl.windowBytes * 8)
		fl.windowBytes = 0
	}
	util := 0.0
	if capacity > 0 {
		util = bits / capacity
	}
	ls.lastWindowUtil = util
	ls.smoothedUtil.Observe(util)
	ls.windowBytes = 0
}
