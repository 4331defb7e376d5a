package netsim

import (
	"fmt"
	"testing"
	"time"

	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// linkLedger audits the link layer's packet ledger from outside its
// counters: every packet offered to a link was lost, tail-dropped, has
// arrived at the far end, or is still on a link. "Still on a link" is
// counted independently of offered/arrived, from where the packets actually
// sit: the links' inflight rings, the undrained hand-off rings, and the
// cross-shard arrival events pending in destination engines.
type linkLedger struct {
	n *Network
	// made[d] counts the arrivalEvents ever created for shard d. Pending
	// ones are then made[d] - len(arrFree): an arrivalEvent is either in the
	// free list or scheduled with a packet.
	made []int
}

func newLinkLedger(n *Network) *linkLedger {
	l := &linkLedger{n: n, made: make([]int, len(n.shards))}
	if n.group != nil {
		n.group.Exchange = func() {
			l.beforeExchange()
			n.exchange()
		}
	}
	return l
}

// handoffs counts the packets (not fluid rate updates) sitting in the
// hand-off rings toward shard d.
func (l *linkLedger) handoffs(d int) int {
	c := 0
	for _, src := range l.n.shards {
		if src.out == nil || src.out[d] == nil {
			continue
		}
		r := src.out[d]
		for h, t := r.head.Load(), r.tail.Load(); h < t; h++ {
			if r.buf[h&uint64(len(r.buf)-1)].pkt != nil {
				c++
			}
		}
		for i := range r.overflow {
			if r.overflow[i].pkt != nil {
				c++
			}
		}
	}
	return c
}

// beforeExchange predicts how many arrivalEvents the coming exchange must
// allocate: one per hand-off beyond what the destination's free list holds.
func (l *linkLedger) beforeExchange() {
	for d, dst := range l.n.shards {
		if miss := l.handoffs(d) - len(dst.arrFree); miss > 0 {
			l.made[d] += miss
		}
	}
}

// run is Network.Run; the exchange Run performs before its first window
// bypasses the group hook, so it is tallied here.
func (l *linkLedger) run(horizon time.Duration) {
	l.beforeExchange()
	l.n.Run(horizon)
}

func (l *linkLedger) check(t *testing.T, label string) (onLinks int) {
	t.Helper()
	n := l.n
	for _, ls := range n.links {
		onLinks += ls.inflight.len()
	}
	for d, dst := range n.shards {
		onLinks += l.handoffs(d) + l.made[d] - len(dst.arrFree)
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
		l := newLinkLedger(n)
		var midRun int
		n.Eng.Schedule(horizon*2/3, func() { midRun = l.check(t, label+" mid-run") })
		l.run(horizon)
		l.check(t, label+" horizon")
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
