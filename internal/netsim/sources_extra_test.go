package netsim

import (
	"testing"
	"time"

	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

func TestAIMDRateCap(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	src := NewAIMDSource(n, h0, packet.HostAddr(int(h1)), 5000, 80, 1200)
	src.SetMaxRate(5e6)
	src.Start()
	n.Run(4 * time.Second)
	// Goodput must be close to the 5 Mbps app limit, not the 100 Mbps
	// path capacity.
	rate := float64(src.AckedBytes()) * 8 / 4
	if rate > 7e6 {
		t.Fatalf("capped AIMD ran at %.1f Mbps, want ≈5", rate/1e6)
	}
	if rate < 3e6 {
		t.Fatalf("capped AIMD only reached %.1f Mbps, want ≈5", rate/1e6)
	}
}

func TestAIMDRateCapStillCollapsesUnderLoss(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	src := NewAIMDSource(n, h0, packet.HostAddr(int(h1)), 5000, 80, 1200)
	src.SetMaxRate(5e6)
	src.Start()
	n.Run(2 * time.Second)
	clean := src.AckedBytes()
	// 30% forward loss: TCP-style collapse, far below the app limit.
	core := n.G.LinkBetween(0, 1)
	n.SetLinkLoss(core, 0.3)
	n.Run(5 * time.Second)
	lossy := src.AckedBytes() - clean
	cleanRate := float64(clean) / 2
	lossyRate := float64(lossy) / 3
	if lossyRate > 0.3*cleanRate {
		t.Fatalf("no TCP collapse under loss: clean %.0f B/s vs lossy %.0f B/s", cleanRate, lossyRate)
	}
	if src.Retransmits() == 0 {
		t.Fatal("no retransmits under 30% loss")
	}
}

func TestLinkLossInjection(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	core := n.G.LinkBetween(0, 1)
	n.SetLinkLoss(core, 0.5)
	src := NewCBRSource(n, h0, packet.HostAddr(int(h1)), 1, 9, packet.ProtoUDP, 1000, 10e6)
	src.Start()
	n.Run(2 * time.Second)
	if n.DropsLoss() == 0 {
		t.Fatal("no injected losses")
	}
	frac := float64(n.Delivered()) / float64(n.Delivered()+n.DropsLoss())
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("delivered fraction %.2f under 50%% loss", frac)
	}
	// Removing the loss restores full delivery.
	n.SetLinkLoss(core, 0)
	lossBefore := n.DropsLoss()
	n.Run(3 * time.Second)
	if n.DropsLoss() != lossBefore {
		t.Fatal("losses continued after clearing the rate")
	}
}

// TestNewKeepsCallerConfig pins the zero-config path of New: only the four
// zero-valued tunables take defaults; the seed (and so every loss draw) and
// the engine selection are the caller's.
func TestNewKeepsCallerConfig(t *testing.T) {
	lossPattern := func(cfg Config) (*Network, string) {
		g := topo.NewGraph()
		s0 := g.AddNode(topo.Switch, "s0")
		h0 := g.AttachHost(s0, "h0", topo.DefaultHostBPS, topo.DefaultHostDelay)
		n := New(g, cfg)
		up := g.LinkBetween(h0, s0)
		n.SetLinkLoss(up, 0.5)
		pat := make([]byte, 64)
		for i := range pat {
			before := n.DropsLoss()
			n.SendFromHost(h0, &packet.Packet{Proto: packet.ProtoUDP, TTL: 64})
			pat[i] = '0' + byte(n.DropsLoss()-before)
		}
		return n, string(pat)
	}
	def := DefaultConfig()
	for _, tc := range []struct {
		name string
		a, b Config
	}{
		{"sharded", Config{Seed: 7, Shards: 2}, Config{Seed: 8, Shards: 2}},
		{"partial", Config{Seed: 7, QueueBytes: 1 << 20}, Config{Seed: 8, UtilAlpha: 0.5}},
	} {
		na, pa := lossPattern(tc.a)
		_, pb := lossPattern(tc.b)
		if _, again := lossPattern(tc.a); again != pa {
			t.Errorf("%s: same seed drew %s then %s", tc.name, pa, again)
		}
		if pa == pb {
			t.Errorf("%s: seeds %d and %d drew the same loss sequence %s", tc.name, tc.a.Seed, tc.b.Seed, pa)
		}
		want := tc.a
		if want.QueueBytes == 0 {
			want.QueueBytes = def.QueueBytes
		}
		want.SwitchLatency, want.UtilWindow, want.UtilAlpha = def.SwitchLatency, def.UtilWindow, def.UtilAlpha
		if na.Cfg != want {
			t.Errorf("%s: New kept %+v, want %+v", tc.name, na.Cfg, want)
		}
	}
}

func TestLinkStatsAndQueueDepth(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	core := n.G.LinkBetween(0, 1)
	for i := 0; i < 30; i++ {
		n.SendFromHost(h0, &packet.Packet{Src: packet.HostAddr(int(h0)),
			Dst: packet.HostAddr(int(h1)), TTL: 64, Proto: packet.ProtoUDP,
			PayloadLen: 1400, Seq: uint32(i)})
	}
	// Before the burst drains, the core queue must hold bytes.
	n.Run(2 * time.Millisecond)
	if n.QueueDepth(core) == 0 {
		t.Fatal("no queue buildup during burst")
	}
	n.Run(time.Second)
	pkts, bytes, drops := n.LinkStats(core)
	if pkts != 30 || drops != 0 {
		t.Fatalf("link stats: pkts=%d drops=%d", pkts, drops)
	}
	if bytes < 30*1400 {
		t.Fatalf("link bytes = %d", bytes)
	}
	if n.QueueDepth(core) != 0 {
		t.Fatal("queue not drained")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		f := topo.NewFigure2()
		users := f.AttachUsers(2)
		servers := f.AttachServers(2)
		cfg := DefaultConfig()
		cfg.Seed = 7
		n := New(f.G, cfg)
		installShortestPathRoutes(n)
		for i, u := range users {
			NewCBRSource(n, u, packet.HostAddr(int(servers[i%2])), uint16(i+1), 80,
				packet.ProtoTCP, 900, 8e6).Start()
		}
		n.Run(2 * time.Second)
		return n.Delivered(), n.Eng.Fired()
	}
	d1, e1 := run()
	d2, e2 := run()
	if d1 != d2 || e1 != e2 {
		t.Fatalf("same seed diverged: delivered %d/%d events %d/%d", d1, d2, e1, e2)
	}
}
