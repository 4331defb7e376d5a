package netsim

import (
	"math"
	"testing"
	"time"

	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// fluidLine builds h0 - s0 - s1 - h1 with a 100 Mbps, 1 ms middle link and
// fast access links, the minimal topology where the middle link is the
// fluid bottleneck.
func fluidLine(t *testing.T, mutate func(*Config)) (*Network, topo.NodeID, topo.NodeID, topo.LinkID) {
	t.Helper()
	g := topo.NewLinear(2)
	h0 := g.AttachHost(0, "src", 1e9, 100e3)
	h1 := g.AttachHost(1, "dst", 1e9, 100e3)
	cfg := DefaultConfig()
	cfg.Fluid = true
	if mutate != nil {
		mutate(&cfg)
	}
	n := New(g, cfg)
	installShortestPathRoutes(n)
	mid := g.LinkBetween(0, 1)
	if mid < 0 {
		t.Fatal("no middle link")
	}
	return n, h0, h1, mid
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*den
}

// TestFluidSteadyUnderCapacity: a flow below every link capacity reaches
// steady state with empty queues, zero drops, and goodput equal to the
// offered rate minus the in-wire ramp.
func TestFluidSteadyUnderCapacity(t *testing.T) {
	n, h0, h1, mid := fluidLine(t, nil)
	f := n.NewFluidFlow(h0, h1, 40e6, 1000) // 40 Mbps < 100 Mbps bottleneck
	f.Start()
	n.Run(2 * time.Second)

	inj := f.InjectedBytes()
	wantInj := 40e6 / 8 * 2
	if !relClose(inj, wantInj, 1e-9) {
		t.Fatalf("injected %.0f, want %.0f", inj, wantInj)
	}
	// The wire holds at most rate × path-delay (~1.2 ms) during the ramp.
	ramp := 40e6 / 8 * 2e-3
	if del := f.DeliveredBytes(); del > inj || del < inj-ramp {
		t.Fatalf("delivered %.0f outside [%.0f, %.0f]", del, inj-ramp, inj)
	}
	if q := n.FluidQueuedBytes(); q != 0 {
		t.Fatalf("steady under-capacity queue = %.3f, want 0", q)
	}
	if d := n.FluidDroppedBytes(); d != 0 {
		t.Fatalf("dropped %.3f, want 0", d)
	}
	offered, delivered, dropped, queued := n.FluidLinkStats(mid)
	if !relClose(offered, delivered+dropped+queued, 1e-9) {
		t.Fatalf("link conservation: offered %.3f != delivered %.3f + dropped %.3f + queued %.3f",
			offered, delivered, dropped, queued)
	}
	if got := n.ModeledHosts(); got != 2+1000 {
		t.Fatalf("ModeledHosts = %d, want 1002", got)
	}
}

// TestFluidOverloadDropsAnalytically: offered load above the bottleneck
// pins the queue at the buffer cap and drops the analytic excess without
// scheduling any per-byte events.
func TestFluidOverloadDropsAnalytically(t *testing.T) {
	n, h0, h1, mid := fluidLine(t, nil)
	f := n.NewFluidFlow(h0, h1, 200e6, 1) // 25 MB/s into a 12.5 MB/s link
	f.Start()
	fired := n.EventsFired()
	n.Run(2 * time.Second)

	_, delivered, dropped, queued := n.FluidLinkStats(mid)
	if want := float64(n.Cfg.QueueBytes); queued != want {
		t.Fatalf("saturated queue = %.1f, want pinned at cap %.1f", queued, want)
	}
	// Excess (25 - 12.5) MB/s accumulates for ~2 s; the buffer absorbs cap.
	wantDrop := 12.5e6*2 - float64(n.Cfg.QueueBytes)
	if !relClose(dropped, wantDrop, 0.01) {
		t.Fatalf("dropped %.0f, want ≈ %.0f", dropped, wantDrop)
	}
	if wantDel := 12.5e6 * 2.0; !relClose(delivered, wantDel, 0.01) {
		t.Fatalf("delivered %.0f, want ≈ %.0f", delivered, wantDel)
	}
	// The scale claim: constant-rate overload needs O(1) events, not
	// O(bytes). 2 s of 200 Mbps as 1000 B packets would be ~50k events.
	if ev := n.EventsFired() - fired; ev > 200 {
		t.Fatalf("fluid overload fired %d events, want O(1)", ev)
	}
}

// TestFluidDrainBoundary: stopping an overloaded flow drains the backlog
// through the queue-empty boundary event and conserves every byte.
func TestFluidDrainBoundary(t *testing.T) {
	n, h0, h1, mid := fluidLine(t, nil)
	f := n.NewFluidFlow(h0, h1, 200e6, 1)
	f.Start()
	n.Eng.ScheduleRank(500*time.Millisecond, n.Owner(SiteScript).Next(), f.Stop)
	n.Run(3 * time.Second)

	if q := n.FluidQueuedBytes(); q != 0 {
		t.Fatalf("queues not drained: %.3f bytes", q)
	}
	inj := f.InjectedBytes()
	if want := 200e6 / 8 * 0.5; !relClose(inj, want, 1e-9) {
		t.Fatalf("injected %.0f, want %.0f", inj, want)
	}
	del, drop := n.FluidDeliveredBytes(), n.FluidDroppedBytes()
	if !relClose(inj, del+drop, 1e-6) {
		t.Fatalf("conservation after drain: injected %.3f != delivered %.3f + dropped %.3f",
			inj, del, drop)
	}
	offered, delivered, dropped, queued := n.FluidLinkStats(mid)
	if !relClose(offered, delivered+dropped+queued, 1e-9) {
		t.Fatalf("link conservation broken: %.3f vs %.3f", offered, delivered+dropped+queued)
	}
}

// TestFluidRateChangePropagates: a mid-run SetRate reaches downstream links
// at propagation speed and settles the whole path at the new rate.
func TestFluidRateChangePropagates(t *testing.T) {
	n, h0, h1, _ := fluidLine(t, nil)
	f := n.NewFluidFlow(h0, h1, 40e6, 1)
	f.Start()
	n.Eng.ScheduleRank(time.Second, n.Owner(SiteScript).Next(), func() { f.SetRate(16e6) })
	n.Run(3 * time.Second)

	inj := f.InjectedBytes()
	want := 40e6/8*1 + 16e6/8*2
	if !relClose(inj, want, 1e-9) {
		t.Fatalf("injected %.0f, want %.0f", inj, want)
	}
	ramp := 40e6 / 8 * 3e-3
	if del := f.DeliveredBytes(); del > inj || del < inj-ramp {
		t.Fatalf("delivered %.0f outside [%.0f, %.0f]", del, inj-ramp, inj)
	}
	// Terminal-hop output settled at the new rate: the last 100 ms of a
	// longer run would deliver 16e6/8 * 0.1 — check via a short extension.
	before := f.DeliveredBytes()
	n.Run(3100 * time.Millisecond)
	gained := f.DeliveredBytes() - before
	if want := 16e6 / 8 * 0.1; !relClose(gained, want, 1e-6) {
		t.Fatalf("settled terminal rate delivered %.1f over 100ms, want %.1f", gained, want)
	}
}

// TestFluidPacketSeesLoad: foreground packets share the buffer and the
// serializer with the fluid backlog — saturation tail-drops them, and a
// draining backlog shows up as added delivery latency.
func TestFluidPacketSeesLoad(t *testing.T) {
	// Saturation: the fluid queue pins at the byte cap, so every foreground
	// packet is tail-dropped at admission.
	n, h0, h1, _ := fluidLine(t, nil)
	f := n.NewFluidFlow(h0, h1, 200e6, 1)
	f.Start()
	n.Eng.ScheduleRank(100*time.Millisecond, n.Owner(SiteScript).Next(), func() {
		p := n.NewPacket()
		p.Src, p.Dst, p.TTL = packet.HostAddr(int(h0)), packet.HostAddr(int(h1)), 64
		p.Proto, p.SrcPort, p.DstPort, p.PayloadLen = packet.ProtoUDP, 1, 2, 100
		n.SendFromHost(h0, p)
	})
	n.Run(200 * time.Millisecond)
	if n.Delivered() != 0 || n.DropsQueue() == 0 {
		t.Fatalf("saturated link: delivered=%d dropsQueue=%d, want packet tail-dropped",
			n.Delivered(), n.DropsQueue())
	}

	// Added latency: measure the same packet's delivery time over an empty
	// link vs one with ~50 KB of draining backlog (~4 ms extra at 12.5 MB/s).
	arrival := func(withBacklog bool) time.Duration {
		n, h0, h1, _ := fluidLine(t, nil)
		if withBacklog {
			f := n.NewFluidFlow(h0, h1, 200e6, 1)
			f.Start()
			// 4 ms of +12.5 MB/s excess builds ~50 KB, then drop to 90 Mbps
			// so the backlog drains slowly while staying under capacity.
			n.Eng.ScheduleRank(4*time.Millisecond, n.Owner(SiteScript).Next(), func() { f.SetRate(90e6) })
		}
		var at time.Duration
		n.Host(h1).OnSink(func(now time.Duration, _ *packet.Packet) { at = now })
		n.Eng.ScheduleRank(5*time.Millisecond, n.Owner(SiteScript).Next(), func() {
			p := n.NewPacket()
			p.Src, p.Dst, p.TTL = packet.HostAddr(int(h0)), packet.HostAddr(int(h1)), 64
			p.Proto, p.SrcPort, p.DstPort, p.PayloadLen = packet.ProtoUDP, 1, 2, 100
			n.SendFromHost(h0, p)
		})
		n.Run(100 * time.Millisecond)
		if at == 0 {
			t.Fatal("probe packet never delivered")
		}
		return at
	}
	clear, loaded := arrival(false), arrival(true)
	if extra := loaded - clear; extra < 2*time.Millisecond {
		t.Fatalf("backlogged link added only %v latency, want ≥ 2ms", extra)
	}
}

// TestFluidRequiresConfig: creating a flow without Config.Fluid panics, so
// the off mode provably has no fluid state anywhere.
func TestFluidRequiresConfig(t *testing.T) {
	g := topo.NewLinear(2)
	h0 := g.AttachHost(0, "a", 1e9, 100e3)
	g.AttachHost(1, "b", 1e9, 100e3)
	n := New(g, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("NewFluidFlow without Config.Fluid did not panic")
		}
	}()
	n.NewFluidFlow(h0, 1, 1e6, 1)
}

// TestFluidUtilization: fluid bytes count toward link utilization windows,
// so load-keyed defenses observe background traffic they never packet-count.
func TestFluidUtilization(t *testing.T) {
	n, h0, h1, mid := fluidLine(t, nil)
	f := n.NewFluidFlow(h0, h1, 60e6, 1) // 60% of the 100 Mbps middle link
	f.Start()
	n.Run(2 * time.Second)
	if u := n.LinkLoad(mid); u < 0.5 || u > 0.7 {
		t.Fatalf("smoothed utilization %.3f, want ≈ 0.6", u)
	}
}
