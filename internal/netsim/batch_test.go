package netsim

import (
	"fmt"
	"testing"
	"time"

	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// compareFingerprints asserts two runs of the same scenario produced
// identical simulation results. windows is compared only when asked:
// it is engine telemetry that adaptive lookahead legitimately changes.
func compareFingerprints(t *testing.T, label string, got, want shardFingerprint, compareWindows bool) {
	t.Helper()
	if got.delivered != want.delivered || got.noRoute != want.noRoute ||
		got.queue != want.queue || got.pipeline != want.pipeline ||
		got.down != want.down || got.loss != want.loss || got.now != want.now {
		t.Fatalf("%s: counters diverge:\n  want %+v\n  got  %+v", label, want, got)
	}
	if !eqU64s(got.ackedBytes, want.ackedBytes) {
		t.Fatalf("%s: per-flow goodput diverges:\n  want %v\n  got  %v", label, want.ackedBytes, got.ackedBytes)
	}
	if !eqU64s(got.cbrSent, want.cbrSent) {
		t.Fatalf("%s: CBR send counts diverge", label)
	}
	if !eqU64s(got.recvBytes, want.recvBytes) {
		t.Fatalf("%s: receive totals diverge", label)
	}
	if !eqU64s(got.linkSentPkts, want.linkSentPkts) || !eqU64s(got.linkDrops, want.linkDrops) {
		t.Fatalf("%s: per-link statistics diverge", label)
	}
	if compareWindows && got.windows != want.windows {
		t.Fatalf("%s: window counts diverge: want %d, got %d", label, want.windows, got.windows)
	}
}

// TestBatchingDisabledIdentical pins the tentpole's byte-identity claim at
// the netsim level: fusing same-instant delivery events into batches must
// be invisible — the serial engine and every shard count produce exactly
// the same counters, goodput, and per-link statistics with batching on or
// off. Fusion only coalesces events already adjacent in pop order, so any
// divergence here means a batch reordered observable work.
func TestBatchingDisabledIdentical(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			batched := runShardedCfg(t, shards, nil)
			if batched.delivered == 0 {
				t.Fatal("degenerate scenario: nothing delivered")
			}
			unbatched := runShardedCfg(t, shards, func(c *Config) { c.DisableBatch = true })
			compareFingerprints(t, "batched vs unbatched", batched, unbatched, true)
		})
	}
}

// TestAdaptiveLookaheadConservative proves the adaptive window bound never
// overruns the protocol's safety requirement: every cross-shard hand-off
// pushed during a window arrives strictly after that window's end, and the
// adaptive bound is never narrower than the static base+minCutDelay window
// it replaces. The test wraps the group's Bound and Exchange hooks and
// checks both properties at every barrier of a real multi-region run.
func TestAdaptiveLookaheadConservative(t *testing.T) {
	m := topo.NewMultiRegion(3, 5)
	users := m.AttachUsers(6)
	servers := m.AttachServers(3)
	g := m.Graph()
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Shards = 4
	n := New(g, cfg)
	installShortestPathRoutes(n)
	if n.group.Bound == nil {
		t.Fatal("adaptive bound not wired despite cut links")
	}
	static := time.Duration(n.part.MinCutDelayNS)
	orig := n.group.Bound

	// lastTend tracks the actual end of the running window: the adaptive
	// bound further capped by the coordinator's next event, exactly as
	// ShardGroup.Run caps it after calling Bound.
	var lastTend time.Duration
	var windows, handoffs int
	n.group.Bound = func(base, horizon time.Duration) time.Duration {
		tend := orig(base, horizon)
		floor := base + static
		if floor > horizon {
			floor = horizon
		}
		if tend < floor {
			t.Errorf("adaptive bound %v narrower than static window end %v (base %v)", tend, floor, base)
		}
		actual := tend
		if at, ok := n.Eng.PeekAt(); ok && at < actual {
			actual = at
		}
		lastTend = actual
		windows++
		return tend
	}
	check := func(at time.Duration) {
		handoffs++
		if at <= lastTend {
			t.Errorf("hand-off arrives at %v, at or before window end %v", at, lastTend)
		}
	}
	n.group.Exchange = func() {
		for _, sh := range n.shards {
			for _, ring := range sh.out {
				if ring == nil {
					continue
				}
				h, tl := ring.head.Load(), ring.tail.Load()
				for ; h < tl; h++ {
					check(ring.buf[h&uint64(len(ring.buf)-1)].at)
				}
				for i := range ring.overflow {
					check(ring.overflow[i].at)
				}
			}
		}
		n.exchange()
	}

	for i, u := range users {
		s := NewCBRSource(n, u, packet.HostAddr(int(servers[i%len(servers)])),
			uint16(6000+i), 80, packet.ProtoUDP, 600, 2e6)
		s.Start()
	}
	n.Run(time.Second)
	if windows == 0 || handoffs == 0 {
		t.Fatalf("vacuous run: %d windows, %d cross-shard hand-offs checked", windows, handoffs)
	}
	if n.Delivered() == 0 {
		t.Fatal("no packets delivered")
	}
}

// TestAdaptiveLookaheadIdenticalResults runs the heavy sharded scenario
// under the static and adaptive window bounds: results must be
// byte-identical (windows are pure synchronization points), and adaptive
// must never pay for MORE barriers than static. On this saturated
// workload the cut links stay busy, so the adaptive bound legitimately
// collapses to the static one — the strict-improvement claim is pinned
// separately on a sparse workload below.
func TestAdaptiveLookaheadIdenticalResults(t *testing.T) {
	adaptive := runShardedCfg(t, 4, nil)
	static := runShardedCfg(t, 4, func(c *Config) { c.StaticLookahead = true })
	compareFingerprints(t, "adaptive vs static lookahead", adaptive, static, false)
	if adaptive.windows > static.windows {
		t.Fatalf("adaptive lookahead ran MORE windows than static: %d > %d", adaptive.windows, static.windows)
	}
	t.Logf("windows: static=%d adaptive=%d", static.windows, adaptive.windows)
}

// runAsymmetricCut drives a topology built to expose the adaptive bound's
// advantage: the global min cut delay (2 ms, A—B) belongs to links whose
// source shards sit idle, while the shard doing all the work only reaches
// other shards over a 20 ms cut. The static bound crawls in 2 ms steps
// dictated by a link nothing ever crosses; the adaptive bound reads the
// cut state and strides in 20 ms steps.
//
//	shard 0: {A}       idle spectator switch
//	shard 1: {C1, C2}  dense internal CBR flow (packet every 0.5 ms)
//	shard 2: {B}       sparse sender into C2 (packet every 20 ms)
//	cuts:    A—B 2 ms (never used), B—C1 20 ms (sparse traffic)
func runAsymmetricCut(t *testing.T, static bool) (delivered, windows uint64) {
	t.Helper()
	g := topo.NewGraph()
	a := g.AddNode(topo.Switch, "a")
	b := g.AddNode(topo.Switch, "b")
	c1 := g.AddNode(topo.Switch, "c1")
	c2 := g.AddNode(topo.Switch, "c2")
	g.AddDuplex(a, b, topo.DefaultLinkBPS, 2e6)
	g.AddDuplex(b, c1, topo.DefaultLinkBPS, 20e6)
	g.AddDuplex(c1, c2, topo.DefaultLinkBPS, 100e3)
	hb := g.AttachHost(b, "hb", topo.DefaultHostBPS, topo.DefaultHostDelay)
	hc1 := g.AttachHost(c1, "hc1", topo.DefaultHostBPS, topo.DefaultHostDelay)
	hc2 := g.AttachHost(c2, "hc2", topo.DefaultHostBPS, topo.DefaultHostDelay)

	cfg := DefaultConfig()
	cfg.Seed = 9
	cfg.Shards = 3
	cfg.StaticLookahead = static
	n := New(g, cfg)
	installShortestPathRoutes(n)
	if n.ShardOf(b) == n.ShardOf(c1) || n.ShardOf(a) != 0 || n.ShardOf(c1) != n.ShardOf(c2) {
		t.Fatalf("partition did not split as designed: a=%d b=%d c1=%d c2=%d",
			n.ShardOf(a), n.ShardOf(b), n.ShardOf(c1), n.ShardOf(c2))
	}

	dense := NewCBRSource(n, hc1, packet.HostAddr(int(hc2)), 6000, 80,
		packet.ProtoUDP, 600, 9.6e6) // 600B every 0.5 ms, all intra-shard
	dense.Start()
	sparse := NewCBRSource(n, hb, packet.HostAddr(int(hc2)), 6001, 80,
		packet.ProtoUDP, 600, 2.4e5) // 600B every 20 ms, across the 20 ms cut
	sparse.Start()
	n.Run(500 * time.Millisecond)
	return n.Delivered(), n.Windows()
}

// TestAdaptiveLookaheadWidensWindows is the perf claim behind the adaptive
// bound: when the min-delay cut link is quiescent with an idle source
// shard, the run must pay for strictly fewer barrier windows than the
// static min-cut-delay bound, while delivering exactly the same packets.
func TestAdaptiveLookaheadWidensWindows(t *testing.T) {
	sDel, sWin := runAsymmetricCut(t, true)
	aDel, aWin := runAsymmetricCut(t, false)
	if sDel == 0 || sDel != aDel {
		t.Fatalf("deliveries diverge across lookahead modes: static=%d adaptive=%d", sDel, aDel)
	}
	if aWin >= sWin {
		t.Fatalf("adaptive lookahead did not widen windows: static=%d adaptive=%d", sWin, aWin)
	}
	t.Logf("asymmetric-cut windows: static=%d adaptive=%d (%.1fx fewer)",
		sWin, aWin, float64(sWin)/float64(aWin))
}

// TestQueueSaturatingBurstZeroAlloc pins the on-demand rings: a burst that
// saturates a link's byte cap (tail drops included) must not allocate in
// steady state. The first burst doubles the waiting and inflight rings up
// to what the byte cap admits; the same burst again fits what is there.
func TestQueueSaturatingBurstZeroAlloc(t *testing.T) {
	n, h0, h1 := twoHostLine(t)
	src, dst := packet.HostAddr(int(h0)), packet.HostAddr(int(h1))

	// Each packet occupies wire size baseHeader+payload; oversend by 25%
	// so the FIFO byte cap is exceeded and the tail-drop path runs too.
	pktWire := packet.MinWireLen + 100
	burst := n.Cfg.QueueBytes/pktWire + n.Cfg.QueueBytes/(4*pktWire)
	sendBurst := func() {
		for i := 0; i < burst; i++ {
			p := n.NewPacket()
			p.Src, p.Dst, p.TTL = src, dst, 64
			p.Proto, p.SrcPort, p.DstPort = packet.ProtoUDP, 1, 2
			p.PayloadLen = 100
			n.SendFromHost(h0, p)
		}
		n.Run(n.Now() + 100*time.Millisecond)
	}
	sendBurst() // warm rings, pools, and accounting entries
	if n.DropsQueue() == 0 {
		t.Fatalf("burst of %d packets never saturated the queue; the test is vacuous", burst)
	}
	drops := n.DropsQueue()

	allocs := testing.AllocsPerRun(5, sendBurst)
	if allocs != 0 {
		t.Fatalf("queue-saturating burst allocates %.2f objects/op in steady state, want 0", allocs)
	}
	if n.DropsQueue() == drops {
		t.Fatal("measured bursts stopped saturating the queue")
	}
}
