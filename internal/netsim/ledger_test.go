package netsim

import (
	"fmt"
	"testing"
	"time"

	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// checkLinkLedger audits the link layer's packet ledger from outside its
// counters: every packet offered to a link was lost, tail-dropped, has
// arrived at the far end, or is still on a link. "Still on a link" is
// counted independently of offered/arrived, from where the packets actually
// sit: the links' inflight rings and the undrained hand-off rings.
func checkLinkLedger(t *testing.T, n *Network, label string) (onLinks int) {
	t.Helper()
	for _, ls := range n.links {
		onLinks += ls.inflight.len()
	}
	for _, src := range n.shards {
		for _, r := range src.out {
			if r == nil {
				continue
			}
			// Packets, not fluid rate updates.
			for h, t := r.head.Load(), r.tail.Load(); h < t; h++ {
				if r.buf[h&uint64(len(r.buf)-1)].pkt != nil {
					onLinks++
				}
			}
			for i := range r.overflow {
				if r.overflow[i].pkt != nil {
					onLinks++
				}
			}
		}
	}
	offered, arrived := n.LinkLedger()
	if got := n.DropsLoss() + n.DropsQueue() + arrived + uint64(onLinks); offered != got {
		t.Errorf("%s at %v: offered %d != %d (loss %d + queue %d + arrived %d + on links %d)",
			label, n.Now(), offered, got, n.DropsLoss(), n.DropsQueue(), arrived, onLinks)
	}
	return onLinks
}

// TestLinkLedger runs the Figure-3 short shape (Figure-2 topology, 8 AIMD
// users, 40 bots flooding from one third of the run on, injected loss on a
// critical link) on the serial and the 2-shard engine, and a fluid-coupled
// multi-region run, and balances the ledger at a mid-run barrier — queues
// full, packets on every link — and at the horizon.
func TestLinkLedger(t *testing.T) {
	const horizon = 6 * time.Second
	audit := func(t *testing.T, label string, n *Network) {
		var midRun int
		n.Eng.Schedule(horizon*2/3, func() { midRun = checkLinkLedger(t, n, label+" mid-run") })
		n.Run(horizon)
		checkLinkLedger(t, n, label+" horizon")
		if midRun == 0 || n.DropsQueue() == 0 || n.DropsLoss() == 0 {
			t.Fatalf("%s: vacuous run: %d packets on links mid-run, %d queue drops, %d losses",
				label, midRun, n.DropsQueue(), n.DropsLoss())
		}
	}
	for _, shards := range []int{0, 2} {
		label := fmt.Sprintf("fig3-short shards=%d", shards)
		t.Run(label, func(t *testing.T) {
			f := topo.NewFigure2()
			users, bots, servers := f.AttachUsers(8), f.AttachBots(40), f.AttachServers(8)
			cfg := DefaultConfig()
			cfg.Seed = 3
			cfg.Shards = shards
			n := New(f.G, cfg)
			installShortestPathRoutes(n)
			for i, u := range users {
				s := NewAIMDSource(n, u, packet.HostAddr(int(servers[i%len(servers)])), uint16(6000+i), 80, 1200)
				s.SetMaxRate(5e6)
				s.Start()
			}
			for i, b := range bots {
				s := NewCBRSource(n, b, packet.HostAddr(int(servers[i%len(servers)])), uint16(7000+i), 80,
					packet.ProtoUDP, 1000, 3e6)
				n.Eng.Schedule(horizon/3, s.Start)
			}
			n.SetLinkLoss(f.CriticalLinkA, 0.01)
			audit(t, label, n)
		})
	}
	for _, shards := range []int{0, 2} {
		label := fmt.Sprintf("fluid-coupled shards=%d", shards)
		t.Run(label, func(t *testing.T) {
			m := topo.NewMultiRegion(3, 5)
			users, servers := m.AttachUsers(6), m.AttachServers(3)
			g := m.Graph()
			cfg := DefaultConfig()
			cfg.Seed = 3
			cfg.Shards = shards
			cfg.Fluid = true
			n := New(g, cfg)
			installShortestPathRoutes(n)
			// Background fluid fills the backbone buffers the packets share.
			for ri, ring := range m.Regions {
				n.NewFluidFlow(ring[0], servers[ri%len(servers)], 390e6, 5000).Start()
			}
			for i, u := range users {
				s := NewCBRSource(n, u, packet.HostAddr(int(servers[i%len(servers)])), uint16(6000+i), 80,
					packet.ProtoUDP, 1000, 20e6)
				s.Start()
			}
			n.SetLinkLoss(g.LinkBetween(m.Regions[0][0], m.Victim.CoreA), 0.01)
			audit(t, label, n)
		})
	}
}
