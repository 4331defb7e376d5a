package netsim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"

	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// refLink is the oracle for the closed-form FIFO in link.go: the evented
// store-and-forward link this package used to run (enqueue, a tx-done event
// per packet, a deliver event per packet), written as naively as possible —
// container/heap, a slice queue, no pools, no memo. Equal-time events fire
// tx-done first, then window rolls, then arrivals, then probes: a packet
// whose service starts at t has left the buffer for everything else at t.
type refLink struct {
	bps      float64
	prop     time.Duration
	capBytes int
	window   time.Duration
	loss     float64
	rng      *rand.Rand

	now    time.Duration
	events refHeap
	seq    int

	queue       []refPkt
	queuedBytes int
	busy        bool
	sentBytes   uint64
	windowBytes uint64
	lastUtil    float64

	deliveredAt map[uint32]time.Duration
	lost, tail  map[uint32]bool
	starts      []time.Duration // service-start instants of packets that waited
	ties        int             // arrivals landing exactly on the latest of them
	probes      []linkProbe
}

type refPkt struct {
	id   uint32
	size int
}

type linkProbe struct {
	at        time.Duration
	depth     int
	sentBytes uint64
	util      float64
}

const (
	refTxDone = iota
	refRoll
	refArrive
	refDeliver
	refProbe
)

type refEvent struct {
	at   time.Duration
	kind int
	seq  int
	pkt  refPkt
}

type refHeap []refEvent

func (h refHeap) Len() int      { return len(h) }
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}
func (h *refHeap) Push(x any) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func (l *refLink) schedule(at time.Duration, kind int, p refPkt) {
	heap.Push(&l.events, refEvent{at: at, kind: kind, seq: l.seq, pkt: p})
	l.seq++
}

func (l *refLink) enqueue(p refPkt) {
	if k := len(l.starts); k > 0 && l.starts[k-1] == l.now {
		l.ties++
	}
	if l.loss > 0 && l.rng.Float64() < l.loss {
		l.lost[p.id] = true
		return
	}
	if l.queuedBytes+p.size > l.capBytes {
		l.tail[p.id] = true
		return
	}
	l.queue = append(l.queue, p)
	l.queuedBytes += p.size
	if !l.busy {
		l.transmitNext(false)
	}
}

func (l *refLink) transmitNext(waited bool) {
	if len(l.queue) == 0 {
		l.busy = false
		return
	}
	l.busy = true
	p := l.queue[0]
	l.queue = l.queue[1:]
	l.queuedBytes -= p.size
	if waited {
		l.starts = append(l.starts, l.now)
	}
	tx := time.Duration(float64(p.size*8) / l.bps * float64(time.Second))
	if tx <= 0 {
		tx = time.Nanosecond
	}
	l.sentBytes += uint64(p.size)
	l.windowBytes += uint64(p.size)
	l.schedule(l.now+tx, refTxDone, refPkt{})
	l.schedule(l.now+tx+l.prop, refDeliver, p)
}

func (l *refLink) run(horizon time.Duration) {
	for at := l.window; at <= horizon; at += l.window {
		l.schedule(at, refRoll, refPkt{})
	}
	for l.events.Len() > 0 {
		e := heap.Pop(&l.events).(refEvent)
		if e.at > horizon {
			return
		}
		l.now = e.at
		switch e.kind {
		case refTxDone:
			l.transmitNext(true)
		case refRoll:
			l.lastUtil = float64(l.windowBytes*8) / (l.bps * l.window.Seconds())
			l.windowBytes = 0
		case refArrive:
			l.enqueue(e.pkt)
		case refDeliver:
			l.deliveredAt[e.pkt.id] = l.now
		case refProbe:
			l.probes = append(l.probes, linkProbe{l.now, l.queuedBytes, l.sentBytes, l.lastUtil})
		}
	}
}

type linkArrival struct {
	at      time.Duration
	payload int
}

func (a linkArrival) packet(id uint32) *packet.Packet {
	return &packet.Packet{Proto: packet.ProtoUDP, TTL: 64, Seq: id, PayloadLen: uint16(a.payload)}
}

// linkScript builds a seeded arrival script for a 10 Mbps link with a
// 16 KiB buffer: a hand-made prologue whose third packet lands exactly on
// the second's service start, then alternating idle gaps, paced traffic and
// bursts past the buffer, with mixed sizes throughout.
func linkScript(seed int64, bps float64) []linkArrival {
	rng := rand.New(rand.NewSource(seed))
	txOf := func(payload int) time.Duration {
		return time.Duration(float64(linkArrival{payload: payload}.packet(0).Len()*8) / bps * float64(time.Second))
	}
	t := time.Millisecond
	script := []linkArrival{{t, 1000}, {t, 200}, {t + txOf(1000), 700}}
	t += 10 * time.Millisecond
	sizes := []int{0, 64, 200, 700, 1000, 1400}
	for t < 900*time.Millisecond {
		switch rng.Intn(3) {
		case 0: // idle gap, then a lone packet
			t += time.Duration(1+rng.Intn(20)) * time.Millisecond
			script = append(script, linkArrival{t, sizes[rng.Intn(len(sizes))]})
		case 1: // paced near line rate: the link alternates idle/backlogged
			for i := rng.Intn(40); i >= 0; i-- {
				p := sizes[rng.Intn(len(sizes))]
				script = append(script, linkArrival{t, p})
				t += txOf(p) + time.Duration(rng.Intn(2000)-1000)
			}
		case 2: // burst past QueueBytes in (almost) zero virtual time
			for i := 20 + rng.Intn(30); i >= 0; i-- {
				script = append(script, linkArrival{t, sizes[rng.Intn(len(sizes))]})
				t += time.Duration(rng.Intn(3))
			}
		}
	}
	return script
}

// TestLinkMatchesEventedReference drives the closed-form link and the
// evented reference with the same arrival script on one switch-to-host link
// and requires identical per-packet delivery instants (shifted by the
// constant switch latency, which now sits behind the serializer), identical
// drop decisions by cause, and identical queue depth, sent bytes and window
// utilization at every probe — including probes and arrivals that land
// exactly on a service-start instant.
func TestLinkMatchesEventedReference(t *testing.T) {
	const (
		bps      = 10e6
		capBytes = 16 << 10
		horizon  = time.Second
	)
	for _, loss := range []float64{0, 0.1} {
		for _, seed := range []int64{1, 2, 3} {
			window := DefaultConfig().UtilWindow
			newRef := func(script []linkArrival) *refLink {
				l := &refLink{
					bps: bps, prop: time.Duration(topo.DefaultHostDelay), capBytes: capBytes,
					window: window, loss: loss, rng: rand.New(rand.NewSource(seed)),
					deliveredAt: map[uint32]time.Duration{}, lost: map[uint32]bool{}, tail: map[uint32]bool{},
				}
				for i, a := range script {
					l.schedule(a.at, refArrive, refPkt{uint32(i), a.packet(0).Len()})
				}
				return l
			}
			// A dry run of the reference finds service-start instants; every
			// fifth becomes an extra arrival and every third a probe.
			script := linkScript(seed, bps)
			dry := newRef(script)
			dry.run(horizon)
			var probeAt []time.Duration
			for i, s := range dry.starts {
				if i%5 == 0 {
					script = append(script, linkArrival{s, 300})
				}
				if i%3 == 0 {
					probeAt = append(probeAt, s)
				}
			}
			for at := window + 1; at < horizon; at += window {
				probeAt = append(probeAt, at) // just after each roll
			}
			rng := rand.New(rand.NewSource(seed + 100))
			for i := 0; i < 200; i++ {
				probeAt = append(probeAt, time.Duration(rng.Int63n(int64(horizon))))
			}
			// Nothing may land on a roll instant: there the ticker's place in
			// the engine's insertion order, not the link, would decide.
			for i := range script {
				if script[i].at%window == 0 {
					script[i].at++
				}
			}
			for i := range probeAt {
				if probeAt[i]%window == 0 {
					probeAt[i]++
				}
			}

			ref := newRef(script)
			g := topo.NewGraph()
			sw := g.AddNode(topo.Switch, "s")
			h := g.AttachHost(sw, "h", bps, topo.DefaultHostDelay)
			cfg := DefaultConfig()
			cfg.QueueBytes = capBytes
			cfg.Seed = seed
			n := New(g, cfg)
			lid := g.LinkBetween(sw, h)
			n.SetLinkLoss(lid, loss)
			got := map[uint32]time.Duration{}
			n.Host(h).OnSink(func(p *packet.Packet) { got[p.Seq] = n.Now() })
			for i, a := range script {
				pkt := a.packet(uint32(i))
				n.Eng.Schedule(a.at, func() { n.Enqueue(lid, pkt) })
			}
			var probes []linkProbe
			for _, at := range probeAt {
				ref.schedule(at, refProbe, refPkt{})
				n.Eng.Schedule(at, func() {
					_, sent, _ := n.LinkStats(lid)
					probes = append(probes, linkProbe{n.Now(), n.QueueDepth(lid), sent, n.LinkLoadInstant(lid)})
				})
			}
			ref.run(horizon)
			n.Run(horizon)

			if ref.ties == 0 || len(ref.tail) == 0 || (loss > 0) != (len(ref.lost) > 0) {
				t.Fatalf("loss=%v seed=%d: vacuous script: %d start-instant ties, %d tail drops, %d losses",
					loss, seed, ref.ties, len(ref.tail), len(ref.lost))
			}
			if n.DropsQueue() != uint64(len(ref.tail)) || n.DropsLoss() != uint64(len(ref.lost)) {
				t.Fatalf("loss=%v seed=%d: drops queue/loss = %d/%d, reference %d/%d",
					loss, seed, n.DropsQueue(), n.DropsLoss(), len(ref.tail), len(ref.lost))
			}
			for i := range script {
				id := uint32(i)
				want, ok := ref.deliveredAt[id]
				at, delivered := got[id]
				if ok != delivered {
					t.Fatalf("loss=%v seed=%d: packet %d delivered=%v, reference %v (lost=%v tail=%v)",
						loss, seed, id, delivered, ok, ref.lost[id], ref.tail[id])
				}
				if ok && at-cfg.SwitchLatency != want {
					t.Fatalf("loss=%v seed=%d: packet %d delivered at %v, reference %v + switch latency",
						loss, seed, id, at, want)
				}
			}
			if len(probes) != len(ref.probes) {
				t.Fatalf("loss=%v seed=%d: %d probes, reference %d", loss, seed, len(probes), len(ref.probes))
			}
			for i, p := range probes {
				if p != ref.probes[i] {
					t.Fatalf("loss=%v seed=%d: probe %d = %+v, reference %+v", loss, seed, i, p, ref.probes[i])
				}
			}
		}
	}
}
