package netsim

import (
	"testing"
	"time"

	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// TestWarmShardedPoolsStayLevel pins the barrier-time pool levelling. A
// packet is allocated from the sender's partition pool and freed into the
// receiver's, so one-way traffic across a cut drains the sending pools into
// the receiving one; without levelling a warm fabric allocates the whole
// flow afresh every rep (about 4 % of gets on fig3x) and the receiver's free
// list grows by as much. With it, from the second rep on fresh allocations
// stay under 1 % of gets and the pooled total stops growing.
func TestWarmShardedPoolsStayLevel(t *testing.T) {
	m := topo.NewMultiRegion(3, 5)
	bots := m.AttachBots(12)
	servers := m.AttachServers(3)
	g := m.Graph()
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Shards = 2
	n := New(g, cfg)
	installShortestPathRoutes(n)
	crossing := 0
	for _, b := range bots {
		if n.ShardOf(b) != n.ShardOf(servers[0]) {
			crossing++
		}
	}
	if crossing < len(bots)/2 {
		t.Fatalf("only %d of %d bots sit across a cut from the servers", crossing, len(bots))
	}

	pooled := func() (free int) {
		for _, sh := range n.shards {
			free += sh.pool.Free()
		}
		return free
	}
	var prevFree int
	for rep := 1; rep <= 4; rep++ {
		if rep > 1 {
			n.Reset(cfg.Seed)
		}
		for i, b := range bots {
			// One way only: UDP towards the victim region, nothing back.
			NewCBRSource(n, b, packet.HostAddr(int(servers[i%len(servers)])), uint16(7000+i), 80,
				packet.ProtoUDP, 100, 5e6).Start()
		}
		n.Run(2 * time.Second)
		gets, fresh := n.PoolStats()
		free := pooled()
		if gets < 50_000 || n.Delivered() == 0 {
			t.Fatalf("rep %d: degenerate run, gets=%d delivered=%d", rep, gets, n.Delivered())
		}
		if rep > 1 {
			if fresh*100 > gets {
				t.Errorf("rep %d on a warm fabric allocated %d fresh packets for %d gets (> 1 %%)", rep, fresh, gets)
			}
			if free > prevFree+int(gets/100) {
				t.Errorf("rep %d: pooled packets grew %d -> %d over %d gets (> 1 %%)", rep, prevFree, free, gets)
			}
		}
		t.Logf("rep %d: gets=%d fresh=%d pooled=%d", rep, gets, fresh, free)
		prevFree = free
	}
}
