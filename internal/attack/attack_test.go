package attack

import (
	"testing"
	"time"

	"fastflex/internal/control"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// lfaRig: Figure-2 topology, static TE, bots and servers attached.
type lfaRig struct {
	f       *topo.Figure2
	n       *netsim.Network
	bots    []topo.NodeID
	servers []topo.NodeID
	srvAddr []packet.Addr
}

func newLFARig(t *testing.T, nBots int) *lfaRig {
	t.Helper()
	f := topo.NewFigure2()
	bots := f.AttachBots(nBots)
	servers := f.AttachServers(2)
	n := netsim.New(f.G, netsim.DefaultConfig())
	control.NewTEController(n, control.Config{}).InstallStatic()
	rig := &lfaRig{f: f, n: n, bots: bots, servers: servers}
	for _, s := range servers {
		rig.srvAddr = append(rig.srvAddr, packet.HostAddr(int(s)))
	}
	return rig
}

func TestCrossfireReconFindsCriticalLink(t *testing.T) {
	rig := newLFARig(t, 4)
	a := NewCrossfire(rig.n, CrossfireConfig{Bots: rig.bots, Servers: rig.srvAddr})
	a.Launch()
	rig.n.Run(time.Second)
	tgt := a.Target()
	if tgt == (HopPair{}) {
		t.Fatal("no target selected after recon")
	}
	// The selected pair must be one of the two designed critical links
	// (coreX → victimEdge).
	critA := HopPair{packet.RouterAddr(int(rig.f.CoreA)), packet.RouterAddr(int(rig.f.VictimEdge))}
	critB := HopPair{packet.RouterAddr(int(rig.f.CoreB)), packet.RouterAddr(int(rig.f.VictimEdge))}
	if tgt != critA && tgt != critB {
		t.Fatalf("target %v is not a critical link (%v or %v)", tgt, critA, critB)
	}
}

func TestCrossfireFloodsTargetLink(t *testing.T) {
	rig := newLFARig(t, 20)
	// Only the ~10 bots behind one ingress cross any single critical
	// link, so per-flow rate must make 10 × 2 servers × 2 flows exceed
	// 100 Mbps: 4 Mbps × 40 flows = 160 Mbps.
	a := NewCrossfire(rig.n, CrossfireConfig{
		Bots: rig.bots, Servers: rig.srvAddr,
		BotRateBps: 4e6, FlowsPerBot: 2,
	})
	a.Launch()
	rig.n.Run(5 * time.Second)
	if a.ActiveBotFlows == 0 {
		t.Fatal("no bot flows active")
	}
	// One of the critical links must be saturated.
	loadA := rig.n.LinkLoad(rig.f.CriticalLinkA)
	loadB := rig.n.LinkLoad(rig.f.CriticalLinkB)
	if loadA < 0.9 && loadB < 0.9 {
		t.Fatalf("neither critical link flooded: A=%.2f B=%.2f", loadA, loadB)
	}
	// Victim host itself never receives attack traffic: bots talk only to
	// the public servers (Crossfire's defining property). All bot flows
	// target the servers by construction; assert flows aggregate there.
	var serverBytes uint64
	for _, s := range rig.servers {
		serverBytes += rig.n.Host(s).TotalRecvBytes()
	}
	if serverBytes == 0 {
		t.Fatal("attack traffic did not reach the public servers")
	}
	a.Stop()
	sentBefore := a.ActiveBotFlows
	if sentBefore != 0 {
		t.Fatal("Stop did not zero active flows")
	}
}

func TestCrossfireRollsOnRouteChange(t *testing.T) {
	rig := newLFARig(t, 8)
	a := NewCrossfire(rig.n, CrossfireConfig{
		Bots: rig.bots, Servers: rig.srvAddr,
		BotRateBps: 1e6, Rolling: true, ScoutEvery: time.Second,
	})
	a.Launch()
	rig.n.Run(2 * time.Second)
	if len(a.TargetHistory) != 1 {
		t.Fatalf("target history = %v, want 1 before any route change", a.TargetHistory)
	}
	// Reroute the network away from critical link A (as a defense would).
	rerouted := control.ComputeRoutes(rig.f.G, func(l topo.Link) float64 {
		base := control.BaseCost(l)
		if l.ID == rig.f.CriticalLinkA || l.ID == rig.f.CriticalLinkB {
			return base + 100
		}
		return base
	})
	rig.n.Eng.ScheduleRank(2500*time.Millisecond, rig.n.Owner(netsim.SiteScript).Next(), func() { control.Install(rig.n, rerouted) })
	rig.n.Run(6 * time.Second)
	if a.ChangesSeen == 0 {
		t.Fatal("attacker never saw the route change")
	}
	if a.Rolls == 0 {
		t.Fatal("rolling attacker did not re-target")
	}
	if len(a.TargetHistory) < 2 {
		t.Fatalf("target history = %v, want a roll", a.TargetHistory)
	}
	if a.TargetHistory[len(a.TargetHistory)-1] == a.TargetHistory[0] {
		t.Fatal("rolled onto the same target")
	}
}

func TestCrossfireStableRoutesNoRoll(t *testing.T) {
	rig := newLFARig(t, 4)
	a := NewCrossfire(rig.n, CrossfireConfig{
		Bots: rig.bots, Servers: rig.srvAddr,
		BotRateBps: 200e3, Rolling: true, ScoutEvery: time.Second,
	})
	a.Launch()
	rig.n.Run(5 * time.Second)
	if a.Rolls != 0 {
		t.Fatalf("attacker rolled %d times with completely stable routes", a.Rolls)
	}
	if a.ScoutRounds < 3 {
		t.Fatalf("scout rounds = %d, expected periodic scouting", a.ScoutRounds)
	}
}

func TestVolumetricSaturates(t *testing.T) {
	rig := newLFARig(t, 6)
	victim := rig.srvAddr[0]
	v := NewVolumetric(rig.n, rig.bots, victim, 30e6)
	v.Start()
	rig.n.Run(2 * time.Second)
	loadA := rig.n.LinkLoad(rig.f.CriticalLinkA)
	loadB := rig.n.LinkLoad(rig.f.CriticalLinkB)
	if loadA < 0.9 && loadB < 0.9 {
		t.Fatalf("volumetric attack did not saturate: A=%.2f B=%.2f", loadA, loadB)
	}
	v.Stop()
	rig.n.Run(4 * time.Second)
	if rig.n.LinkLoadInstant(rig.f.CriticalLinkA) > 0.1 &&
		rig.n.LinkLoadInstant(rig.f.CriticalLinkB) > 0.1 {
		t.Fatal("attack traffic persists after Stop")
	}
}

func TestPulsingDutyCycle(t *testing.T) {
	rig := newLFARig(t, 4)
	v := NewVolumetric(rig.n, rig.bots, rig.srvAddr[0], 30e6)
	p := NewPulsing(rig.n, v, 500*time.Millisecond, 500*time.Millisecond)
	p.Start()
	rig.n.Run(3200 * time.Millisecond)
	// ~3.2s of 0.5/0.5 duty cycle: pulses at 0, 1s, 2s, 3s → 4 pulses.
	if p.Pulses < 3 || p.Pulses > 5 {
		t.Fatalf("pulses = %d, want ≈4", p.Pulses)
	}
	p.Stop()
	before := p.Pulses
	rig.n.Run(6 * time.Second)
	if p.Pulses != before {
		t.Fatal("pulsing continued after Stop")
	}
}

func TestHopPairHelpers(t *testing.T) {
	hops := []packet.Addr{packet.RouterAddr(1), packet.RouterAddr(2), 0, packet.RouterAddr(4)}
	pairs := pairsOf(hops)
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v, want only the contiguous 1→2", pairs)
	}
	if pairs[0] != (HopPair{packet.RouterAddr(1), packet.RouterAddr(2)}) {
		t.Fatalf("pair = %v", pairs[0])
	}
	if !equalHops(hops, hops) || equalHops(hops, hops[:2]) {
		t.Fatal("equalHops broken")
	}
}
