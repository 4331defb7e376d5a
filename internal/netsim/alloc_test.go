package netsim

import (
	"testing"
	"time"

	"fastflex/internal/packet"
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
