package control

import (
	"testing"
	"time"

	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

func TestNextHopsLinear(t *testing.T) {
	g := topo.NewLinear(4)
	h := g.AttachHost(3, "h", topo.DefaultHostBPS, topo.DefaultHostDelay)
	hops := NextHops(g, h, BaseCost)
	if len(hops) != 4 {
		t.Fatalf("hops for %d switches, want 4", len(hops))
	}
	// Following next hops from switch 0 must reach the host.
	at := topo.NodeID(0)
	for i := 0; i < 10; i++ {
		l := hops[at]
		at = g.Links[l].To
		if at == h {
			return
		}
	}
	t.Fatal("next hops do not reach the destination")
}

func TestNextHopsLoopFree(t *testing.T) {
	f := topo.NewFigure2()
	server := f.AttachServers(1)[0]
	f.AttachUsers(4)
	hops := NextHops(f.G, server, BaseCost)
	for _, start := range f.G.Switches() {
		at := start
		for i := 0; ; i++ {
			if i > len(f.G.Nodes) {
				t.Fatalf("loop detected starting from switch %d", start)
			}
			l, ok := hops[at]
			if !ok {
				t.Fatalf("switch %d has no route to server", at)
			}
			at = f.G.Links[l].To
			if at == server {
				break
			}
		}
	}
}

func TestNextHopsNeverThroughHosts(t *testing.T) {
	f := topo.NewFigure2()
	users := f.AttachUsers(2)
	server := f.AttachServers(1)[0]
	hops := NextHops(f.G, server, BaseCost)
	for sw, l := range hops {
		to := f.G.Links[l].To
		if f.G.Nodes[to].Kind == topo.Host && to != server {
			t.Fatalf("switch %d routes victim traffic into host %d", sw, to)
		}
	}
	_ = users
}

func TestComputeRoutesSplitsAcrossCriticalLinks(t *testing.T) {
	f := topo.NewFigure2()
	f.AttachUsers(2)
	servers := f.AttachServers(2)
	routes := ComputeRoutes(f.G, BaseCost)
	// Default TE must use the short critical links, not the detour:
	// ingressA traffic goes via coreA, ingressB via coreB.
	sAddr := packet.HostAddr(int(servers[0]))
	viaA := routes[f.IngressA][sAddr]
	viaB := routes[f.IngressB][sAddr]
	if f.G.Links[viaA].To != f.CoreA {
		t.Fatalf("ingressA routes via %d, want coreA", f.G.Links[viaA].To)
	}
	if f.G.Links[viaB].To != f.CoreB {
		t.Fatalf("ingressB routes via %d, want coreB", f.G.Links[viaB].To)
	}
	if routes[f.CoreA][sAddr] != f.CriticalLinkA {
		t.Fatal("coreA does not use critical link A by default")
	}
}

func TestTEControllerPeriodicReconfig(t *testing.T) {
	f := topo.NewFigure2()
	f.AttachUsers(2)
	f.AttachServers(1)
	n := netsim.New(f.G, netsim.DefaultConfig())
	c := NewTEController(n, Config{Period: time.Second, ControlLatency: 50 * time.Millisecond})
	c.InstallStatic()
	var times []time.Duration
	c.OnReconfig = func(now time.Duration) { times = append(times, now) }
	c.Start()
	n.Run(3500 * time.Millisecond)
	if c.Reconfigs != 3 {
		t.Fatalf("reconfigs = %d, want 3 in 3.5s at 1s period", c.Reconfigs)
	}
	// Installs land Period + ControlLatency after each cycle start.
	if times[0] != 1050*time.Millisecond {
		t.Fatalf("first install at %v, want 1.05s", times[0])
	}
	c.Stop()
	n.Run(6 * time.Second)
	if c.Reconfigs != 3 {
		t.Fatal("controller kept reconfiguring after Stop")
	}
}

func TestInstallStaticEnablesEndToEnd(t *testing.T) {
	f := topo.NewFigure2()
	users := f.AttachUsers(2)
	servers := f.AttachServers(1)
	n := netsim.New(f.G, netsim.DefaultConfig())
	NewTEController(n, Config{}).InstallStatic()
	n.SendFromHost(users[0], &packet.Packet{
		Src: packet.HostAddr(int(users[0])), Dst: packet.HostAddr(int(servers[0])),
		TTL: 64, Proto: packet.ProtoUDP, PayloadLen: 100,
	})
	n.Run(time.Second)
	if n.Host(servers[0]).TotalRecvBytes() != 100 {
		t.Fatal("static TE does not deliver end-to-end")
	}
	// Reverse path too (ACK clocking depends on it).
	n.SendFromHost(servers[0], &packet.Packet{
		Src: packet.HostAddr(int(servers[0])), Dst: packet.HostAddr(int(users[0])),
		TTL: 64, Proto: packet.ProtoUDP, PayloadLen: 50,
	})
	n.Run(2 * time.Second)
	if n.Host(users[0]).TotalRecvBytes() != 50 {
		t.Fatal("reverse path broken")
	}
}
