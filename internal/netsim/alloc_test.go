package netsim

import (
	"testing"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// TestForwardSteadyStateZeroAlloc pins the end-to-end pooling chain: a UDP
// packet allocated from the Network's pool (packet.Pool), admitted by the
// closed-form link (linkState.enqueue: the waiting and inflight rings and
// the hop's one pooled delivery event), run through a pooled pipeline
// context (shardState.getCtx) and enqueued inline on the egress link, and
// recycled on delivery (shardState.freePacket) must cost zero allocations
// once every free list and ring is warm. A regression here points at one
// of those pools leaking or a per-packet closure creeping back into
// link.go or network.go.
func TestForwardSteadyStateZeroAlloc(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	src, dst := packet.HostAddr(int(h0)), packet.HostAddr(int(h1))

	send := func() {
		p := n.NewPacket()
		p.Src, p.Dst, p.TTL = src, dst, 64
		p.Proto, p.SrcPort, p.DstPort = packet.ProtoUDP, 1, 2
		p.PayloadLen = 100
		n.SendFromHost(h0, p)
	}
	// Warm-up: grow rings, heap, and free lists, and touch the host's
	// receive-accounting map entries.
	for i := 0; i < 64; i++ {
		send()
		n.Run(n.Now() + 10*time.Millisecond)
	}
	newsBefore := news(n)

	allocs := testing.AllocsPerRun(500, func() {
		send()
		n.Run(n.Now() + 10*time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state host→switch→switch→host forwarding allocates %.2f objects/op, want 0", allocs)
	}
	if news(n) != newsBefore {
		t.Fatalf("packet pool allocated %d fresh packets in steady state, want 0 (leak on a drop or delivery path)", news(n)-newsBefore)
	}
	if n.Delivered() < 500 {
		t.Fatalf("only %d packets delivered; the zero-alloc loop was not exercising the full path", n.Delivered())
	}
}

// news returns the pool-miss count summed over shards.
func news(n *Network) uint64 {
	_, misses := n.PoolStats()
	return misses
}

// TestIdleBacklogAlternationZeroAlloc covers the waiting ring's wrap: a link
// that alternates between idle and a short backlog pushes and retires
// waiting entries forever without ever filling the ring, so head walks
// around it many times. Once warm that must allocate nothing, and the
// buffer must read empty after every drain.
func TestIdleBacklogAlternationZeroAlloc(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	src, dst := packet.HostAddr(int(h0)), packet.HostAddr(int(h1))
	core := n.G.LinkBetween(0, 1)

	// Five back-to-back packets: the first finds the core link idle, the
	// other four wait behind it; then the link drains and goes idle again.
	cycle := func() {
		for i := 0; i < 5; i++ {
			p := n.NewPacket()
			p.Src, p.Dst, p.TTL = src, dst, 64
			p.Proto, p.SrcPort, p.DstPort = packet.ProtoUDP, 1, 2
			p.PayloadLen = 1000
			n.SendFromHost(h0, p)
		}
		n.Run(n.Now() + 10*time.Millisecond)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	ring := len(n.links[core].waiting.buf)
	if ring == 0 {
		t.Fatal("core link never queued a packet; the test is vacuous")
	}
	allocs := testing.AllocsPerRun(4*ring, cycle)
	if allocs != 0 {
		t.Fatalf("idle/backlogged alternation allocates %.2f objects/op, want 0", allocs)
	}
	if len(n.links[core].waiting.buf) != ring {
		t.Fatalf("waiting ring grew from %d to %d entries under a constant 4-packet backlog", ring, len(n.links[core].waiting.buf))
	}
	if d := n.QueueDepth(core); d != 0 {
		t.Fatalf("queue depth %d after the link drained", d)
	}
}

// TestProbeFloodClonesPerTarget pins a probe flood's cost under the pool
// contract: the emitter takes one probe from the pool per flood, the last
// target forwards that very packet and every other target a pooled clone
// (N targets, N-1 clones), and each copy is recycled where it is consumed —
// so a warm network floods without a pool miss or an allocation. A ring
// switch re-flooding away from its ingress has one target and clones
// nothing; a flood with nowhere to go recycles the probe on the spot.
func TestProbeFloodClonesPerTarget(t *testing.T) {
	for _, tc := range []struct {
		name    string
		g       *topo.Graph
		at      topo.NodeID
		in      func(g *topo.Graph) topo.LinkID
		targets int
	}{
		{"ring transit", topo.NewRing(6), 0, func(g *topo.Graph) topo.LinkID { return g.LinkBetween(5, 0) }, 1},
		{"ring origin", topo.NewRing(6), 0, func(*topo.Graph) topo.LinkID { return -1 }, 2},
		{"fig2 core origin", topo.NewFigure2().G, topo.NewFigure2().CoreA, func(*topo.Graph) topo.LinkID { return -1 }, -1},
		{"dead end", topo.NewLinear(2), 0, func(g *topo.Graph) topo.LinkID { return g.LinkBetween(1, 0) }, 0},
	} {
		n := New(tc.g, DefaultConfig())
		in := tc.in(tc.g)
		targets := tc.targets
		if targets < 0 {
			targets = len(n.SwitchLinks(tc.at))
		}
		flood := func() {
			probe := n.PoolAt(tc.at).GetProbe()
			probe.TTL, probe.Probe.Kind = 64, packet.ProbeUtil
			n.dispatchEmission(tc.at, dataplane.Emission{Pkt: probe, Via: -1}, in, 0)
			// Let every copy reach its neighbour and be consumed there (no
			// booster is installed), so queues and rings stay empty.
			n.Run(n.Now() + 10*time.Millisecond)
		}
		for i := 0; i < 32; i++ {
			flood()
		}
		offered, _ := n.LinkLedger()
		gets, misses := n.PoolStats()
		flood()
		after, _ := n.LinkLedger()
		if got := int(after - offered); got != targets {
			t.Fatalf("%s: flood reached %d links, want %d", tc.name, got, targets)
		}
		if g, _ := n.PoolStats(); int(g-gets) != max(targets, 1) {
			t.Errorf("%s: a flood to %d targets took %d packets from the pool, want %d (the probe, and a clone per target but the last)",
				tc.name, targets, g-gets, max(targets, 1))
		}
		if allocs := testing.AllocsPerRun(200, flood); allocs != 0 {
			t.Errorf("%s: a flood to %d targets allocates %.1f objects on a warm network, want 0", tc.name, targets, allocs)
		}
		if news(n) != misses {
			t.Errorf("%s: %d pool misses on a warm network, want 0", tc.name, news(n)-misses)
		}
	}
}
