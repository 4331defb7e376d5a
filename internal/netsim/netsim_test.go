package netsim

import (
	"testing"
	"time"

	"fastflex/internal/dataplane"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// twoHostLine builds h0 — s0 — s1 — h1 with routes installed both ways.
func twoHostLine(t *testing.T) (*Network, topo.NodeID, topo.NodeID) {
	t.Helper()
	g := topo.NewGraph()
	s0 := g.AddNode(topo.Switch, "s0")
	s1 := g.AddNode(topo.Switch, "s1")
	g.AddDuplex(s0, s1, topo.DefaultLinkBPS, topo.DefaultLinkDelay)
	h0 := g.AttachHost(s0, "h0", topo.DefaultHostBPS, topo.DefaultHostDelay)
	h1 := g.AttachHost(s1, "h1", topo.DefaultHostBPS, topo.DefaultHostDelay)
	n := New(g, DefaultConfig())
	installShortestPathRoutes(n)
	return n, h0, h1
}

// installShortestPathRoutes fills every switch's router with shortest-path
// next hops toward every host (test helper; the real controller lives in
// internal/control).
func installShortestPathRoutes(n *Network) {
	for _, sw := range n.G.Switches() {
		r := n.Router(sw)
		for _, h := range n.G.Hosts() {
			p, ok := n.G.ShortestPath(sw, h, nil)
			if !ok {
				continue
			}
			r.SetRoute(packet.HostAddr(int(h)), p.Links[0])
		}
	}
}

func TestDeliverySingleHop(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	p := &packet.Packet{
		Src: packet.HostAddr(int(h0)), Dst: packet.HostAddr(int(h1)),
		TTL: 64, Proto: packet.ProtoUDP, SrcPort: 1, DstPort: 2, PayloadLen: 100,
	}
	n.SendFromHost(h0, p)
	n.Run(time.Second)
	if got := n.Host(h1).RecvBytes(packet.HostAddr(int(h0))); got != 100 {
		t.Fatalf("received %d bytes, want 100", got)
	}
	if n.Delivered() != 1 {
		t.Fatalf("delivered = %d", n.Delivered())
	}
}

func TestDeliveryLatency(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	var deliveredAt time.Duration
	n.Host(h1).OnSink(func(now time.Duration, _ *packet.Packet) { deliveredAt = now })
	p := &packet.Packet{Src: packet.HostAddr(int(h0)), Dst: packet.HostAddr(int(h1)),
		TTL: 64, Proto: packet.ProtoUDP, PayloadLen: 1000}
	n.SendFromHost(h0, p)
	n.Run(time.Second)
	// Path: host link (0.1ms) + switch + core link (1ms) + switch + host
	// link (0.1ms) ≈ 1.2ms propagation plus small tx/pipeline time.
	if deliveredAt < 1200*time.Microsecond || deliveredAt > 1500*time.Microsecond {
		t.Fatalf("delivered at %v, want ≈1.2–1.5ms", deliveredAt)
	}
}

func TestNoRouteDrop(t *testing.T) {
	g := topo.NewGraph()
	s0 := g.AddNode(topo.Switch, "s0")
	h0 := g.AttachHost(s0, "h0", topo.DefaultHostBPS, topo.DefaultHostDelay)
	n := New(g, DefaultConfig())
	// No routes installed.
	n.SendFromHost(h0, &packet.Packet{Src: packet.HostAddr(int(h0)),
		Dst: packet.HostAddr(99), TTL: 64, Proto: packet.ProtoUDP})
	n.Run(time.Second)
	if n.DropsNoRoute() != 1 {
		t.Fatalf("no-route drops = %d, want 1", n.DropsNoRoute())
	}
}

func TestQueueTailDrop(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	// Burst far beyond one queue's capacity in zero virtual time.
	for i := 0; i < 200; i++ {
		n.SendFromHost(h0, &packet.Packet{
			Src: packet.HostAddr(int(h0)), Dst: packet.HostAddr(int(h1)),
			TTL: 64, Proto: packet.ProtoUDP, PayloadLen: 1400, Seq: uint32(i),
		})
	}
	n.Run(2 * time.Second)
	if n.DropsQueue() == 0 {
		t.Fatal("no queue drops despite 280KB burst into 64KB queue")
	}
	if n.Delivered() == 0 {
		t.Fatal("nothing delivered")
	}
	if n.Delivered()+n.DropsQueue() != 200 {
		t.Fatalf("delivered %d + dropped %d != 200", n.Delivered(), n.DropsQueue())
	}
}

func TestLinkUtilizationMeasurement(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	src := NewCBRSource(n, h0, packet.HostAddr(int(h1)), 1, 2, packet.ProtoUDP, 1000, 50e6)
	src.Start()
	n.Run(2 * time.Second)
	core := n.G.LinkBetween(0, 1)
	util := n.LinkLoad(core)
	// 50 Mbps into 100 Mbps: utilization ≈ 0.5.
	if util < 0.4 || util > 0.6 {
		t.Fatalf("core link util = %v, want ≈0.5", util)
	}
	if inst := n.LinkLoadInstant(core); inst < 0.3 || inst > 0.7 {
		t.Fatalf("instant util = %v", inst)
	}
}

func TestCBRSourceRate(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	src := NewCBRSource(n, h0, packet.HostAddr(int(h1)), 1, 80, packet.ProtoTCP, 1000, 10e6)
	src.Start()
	n.Run(time.Second)
	got := n.Host(h1).RecvBytes(packet.HostAddr(int(h0)))
	// 10 Mbps for 1s ≈ 1.25 MB of payload (minus framing overhead).
	if got < 1.0e6 || got > 1.3e6 {
		t.Fatalf("CBR delivered %d bytes, want ≈1.2MB", got)
	}
	src.Stop()
	before := src.Sent()
	n.Run(1500 * time.Millisecond)
	if src.Sent() != before {
		t.Fatal("source kept sending after Stop")
	}
	src.Start() // restart works
	n.Run(1600 * time.Millisecond)
	if src.Sent() == before {
		t.Fatal("source did not resume after restart")
	}
}

func TestCBRTCPSendsSYNFirst(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	var first *packet.Packet
	n.Host(h1).OnSink(func(_ time.Duration, p *packet.Packet) {
		if first == nil {
			first = p
		}
	})
	src := NewCBRSource(n, h0, packet.HostAddr(int(h1)), 1, 80, packet.ProtoTCP, 100, 1e6)
	src.Start()
	n.Run(time.Second)
	if first == nil || first.Flags&packet.FlagSYN == 0 {
		t.Fatalf("first packet not a SYN: %v", first)
	}
}

func TestAIMDSourceFillsPipe(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	src := NewAIMDSource(n, h0, packet.HostAddr(int(h1)), 5000, 80, 1400)
	src.Start()
	n.Run(3 * time.Second)
	// 100 Mbps bottleneck: an AIMD flow alone should reach a solid
	// fraction of it. 3s × 100Mbps = 37.5MB max payload.
	acked := src.AckedBytes()
	if acked < 10e6 {
		t.Fatalf("AIMD acked only %d bytes in 3s on an empty 100Mbps path", acked)
	}
	if src.Cwnd() < 4 {
		t.Fatalf("cwnd = %v, suspiciously small on an uncongested path", src.Cwnd())
	}
}

func TestAIMDBacksOffUnderCongestion(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	user := NewAIMDSource(n, h0, packet.HostAddr(int(h1)), 5000, 80, 1400)
	user.Start()
	n.Run(2 * time.Second)
	cleanGoodput := user.AckedBytes()
	// Saturate the shared link with 3× its capacity of UDP.
	blast := NewCBRSource(n, h0, packet.HostAddr(int(h1)), 7, 9, packet.ProtoUDP, 1400, 300e6)
	blast.Start()
	n.Run(4 * time.Second)
	congested := user.AckedBytes() - cleanGoodput
	if user.Retransmits() == 0 {
		t.Fatal("no retransmits despite heavy congestion")
	}
	if float64(congested) > 0.5*float64(cleanGoodput) {
		t.Fatalf("AIMD did not back off: clean=%d congested=%d", cleanGoodput, congested)
	}
}

func TestAIMDTrackingMapsBounded(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	src := NewAIMDSource(n, h0, packet.HostAddr(int(h1)), 5000, 80, 1400)
	src.Start()
	// A clean phase accumulates acked-segment volume, then a congestion
	// burst exercises the loss/timeout/reordering paths, then the flow
	// recovers — so the maps see every mutation path before measurement.
	n.Run(4 * time.Second)
	blast := NewCBRSource(n, h0, packet.HostAddr(int(h1)), 7, 9, packet.ProtoUDP, 1400, 300e6)
	blast.Start()
	n.Run(time.Second)
	blast.Stop()
	n.Run(time.Second)
	segments := src.AckedBytes() / 1400
	if segments < 1000 {
		t.Fatalf("too few segments acked (%d) for the bound to be meaningful", segments)
	}
	// Before the cumulative-ack floor, len(acked) equaled the total number
	// of segments ever acknowledged. Now every map must stay within the
	// flow's reordering window, far below the segment count.
	const bound = 512
	acked, inflight := src.ackedMapSizes()
	if acked > bound || inflight > bound {
		t.Fatalf("tracking maps unbounded after %d segments: acked=%d inflight=%d (bound %d)",
			segments, acked, inflight, bound)
	}
}

func TestAIMDStopCancelsTimers(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	src := NewAIMDSource(n, h0, packet.HostAddr(int(h1)), 5000, 80, 1400)
	src.Start()
	n.Run(500 * time.Millisecond)
	src.Stop()
	sent := src.Sent()
	n.Run(2 * time.Second)
	// Straggler ACKs may still land, but no new transmissions happen.
	if src.Sent() != sent {
		t.Fatalf("source kept transmitting after Stop: %d → %d", sent, src.Sent())
	}
}

func TestTTLExpiryGeneratesICMP(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	var icmps []*packet.Packet
	n.Host(h0).OnICMP(func(p *packet.Packet) { icmps = append(icmps, p) })
	n.SendFromHost(h0, &packet.Packet{
		Src: packet.HostAddr(int(h0)), Dst: packet.HostAddr(int(h1)),
		TTL: 1, Proto: packet.ProtoUDP, Seq: 77,
	})
	n.Run(time.Second)
	if len(icmps) != 1 {
		t.Fatalf("ICMP count = %d, want 1", len(icmps))
	}
	ic := icmps[0]
	if ic.ICMP.Type != packet.ICMPTimeExceeded || ic.ICMP.OrigSeq != 77 {
		t.Fatalf("wrong ICMP: %+v", ic.ICMP)
	}
	if ic.ICMP.From != packet.RouterAddr(0) {
		t.Fatalf("time-exceeded from %v, want first switch", ic.ICMP.From)
	}
}

func TestTraceroute(t *testing.T) {
	// Longer line so there are several hops to discover.
	g := topo.NewGraph()
	var sws []topo.NodeID
	for i := 0; i < 4; i++ {
		sws = append(sws, g.AddNode(topo.Switch, ""))
		if i > 0 {
			g.AddDuplex(sws[i-1], sws[i], topo.DefaultLinkBPS, topo.DefaultLinkDelay)
		}
	}
	h0 := g.AttachHost(sws[0], "h0", topo.DefaultHostBPS, topo.DefaultHostDelay)
	h1 := g.AttachHost(sws[3], "h1", topo.DefaultHostBPS, topo.DefaultHostDelay)
	n := New(g, DefaultConfig())
	installShortestPathRoutes(n)

	var hops []packet.Addr
	done := false
	n.Host(h0).Traceroute(packet.HostAddr(int(h1)), 8, 500*time.Millisecond, func(h []packet.Addr) {
		hops = h
		done = true
	})
	n.Run(time.Second)
	if !done {
		t.Fatal("traceroute never completed")
	}
	// Expect the 3 transit switches to answer (the last hop delivers).
	want := []packet.Addr{packet.RouterAddr(0), packet.RouterAddr(1), packet.RouterAddr(2)}
	if len(hops) < 3 {
		t.Fatalf("hops = %v, want at least 3", hops)
	}
	for i, w := range want {
		if hops[i] != w {
			t.Fatalf("hop %d = %v, want %v (all: %v)", i, hops[i], w, hops)
		}
	}
}

func TestReconfiguringSwitchDropsPackets(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	n.Switch(1).Reconfiguring = true
	n.SendFromHost(h0, &packet.Packet{Src: packet.HostAddr(int(h0)),
		Dst: packet.HostAddr(int(h1)), TTL: 64, Proto: packet.ProtoUDP})
	n.Run(time.Second)
	if n.DropsDown() != 1 {
		t.Fatalf("down drops = %d, want 1", n.DropsDown())
	}
	if n.Delivered() != 0 {
		t.Fatal("packet delivered through a reconfiguring switch")
	}
}

func TestProbeFlooding(t *testing.T) {
	// Triangle of switches; a flooded probe from s0 must reach s1 and s2
	// but dedup prevents infinite circulation.
	g := topo.NewGraph()
	s0 := g.AddNode(topo.Switch, "s0")
	s1 := g.AddNode(topo.Switch, "s1")
	s2 := g.AddNode(topo.Switch, "s2")
	g.AddDuplex(s0, s1, topo.DefaultLinkBPS, topo.DefaultLinkDelay)
	g.AddDuplex(s1, s2, topo.DefaultLinkBPS, topo.DefaultLinkDelay)
	g.AddDuplex(s0, s2, topo.DefaultLinkBPS, topo.DefaultLinkDelay)
	n := New(g, DefaultConfig())

	// A flood PPM that counts receptions and refloods unseen probes.
	counts := map[topo.NodeID]int{}
	for _, sw := range []topo.NodeID{s0, s1, s2} {
		prog := &floodCounter{node: sw, n: n, counts: counts}
		if err := n.Switch(sw).Install(dataplane.Program{PPM: prog, Priority: dataplane.PriControl, Modes: 1}); err != nil {
			t.Fatal(err)
		}
	}
	probe := &packet.Packet{
		Src: packet.RouterAddr(int(s0)), Dst: packet.RouterAddr(0xFFF), TTL: 16,
		Proto: packet.ProtoProbe,
		Probe: &packet.ProbeInfo{Kind: packet.ProbeModeChange, Origin: packet.RouterAddr(int(s0)), Seq: 1, HopsLeft: 8},
	}
	ctxEmit(n, s0, probe)
	n.Run(time.Second)
	if counts[s1] == 0 || counts[s2] == 0 {
		t.Fatalf("flood did not reach all switches: %v", counts)
	}
	if counts[s1] > 2 || counts[s2] > 2 {
		t.Fatalf("flood circulated: %v", counts)
	}
}

// floodCounter is a minimal flooding mode-change-like PPM used only in
// these tests: it counts probe receptions and refloods unseen probes.
type floodCounter struct {
	node   topo.NodeID
	n      *Network
	counts map[topo.NodeID]int
}

func (f *floodCounter) Name() string                   { return "floodcounter" }
func (f *floodCounter) Resources() dataplane.Resources { return dataplane.Resources{Stages: 1} }

func (f *floodCounter) Process(ctx *dataplane.Context) dataplane.Verdict {
	p := ctx.Pkt
	if p.Proto != packet.ProtoProbe {
		return dataplane.Continue
	}
	f.counts[f.node]++
	if f.n.Switch(f.node).SeenProbe(p.Probe.Dedup()) || p.Probe.HopsLeft == 0 {
		return dataplane.Consume
	}
	fl := p.Clone()
	fl.Probe.HopsLeft--
	ctx.Emit(fl, -1)
	return dataplane.Consume
}

func ctxEmit(n *Network, at topo.NodeID, probe *packet.Packet) {
	// Flood from the origin switch without going through a pipeline.
	for _, lid := range n.SwitchLinks(at) {
		n.Enqueue(lid, probe.Clone())
	}
}
