package netsim

import (
	"fmt"
	"testing"
	"time"

	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// shardFingerprint captures every observable outcome of a run that the
// engine promises to keep partition-invariant.
type shardFingerprint struct {
	delivered, noRoute, queue, pipeline, down, loss uint64
	ackedBytes                                      []uint64
	cbrSent                                         []uint64
	recvBytes                                       []uint64
	linkSentPkts                                    []uint64
	linkDrops                                       []uint64
	offered, arrived                                uint64
	now                                             time.Duration
	// partitions is how finely the engine cut the graph (Network.Shards).
	partitions int
	// windows counts barrier rounds. It is engine telemetry, not a
	// simulation result: adaptive lookahead legitimately changes it, so
	// equality checks that span lookahead modes must skip it.
	windows uint64
}

// runSharded builds the multi-region topology with mixed CBR/AIMD traffic
// plus injected loss, runs it for two virtual seconds under the given
// shard count, and fingerprints the result.
func runSharded(t *testing.T, shards int) shardFingerprint {
	return runShardedCfg(t, shards, nil)
}

// runShardedCfg is runSharded with a hook on the built network, so tests
// can switch batching or the adaptive lookahead off over the identical
// scenario.
func runShardedCfg(t *testing.T, shards int, mutate func(*Network)) shardFingerprint {
	t.Helper()
	return runShardedOn(t, shards, 0, mutate)
}

// runShardedOn is runShardedCfg over a parts-way topo.Partition instead of
// the engine's own choice (parts = 0), so tests can hold the worker count
// and vary only how finely the graph is cut.
func runShardedOn(t *testing.T, shards, parts int, mutate func(*Network)) shardFingerprint {
	t.Helper()
	m := topo.NewMultiRegion(3, 5)
	users := m.AttachUsers(6)
	bots := m.AttachBots(9)
	servers := m.AttachServers(3)
	g := m.Graph()

	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.Shards = shards
	var part *topo.Shards
	if parts > 0 {
		part = topo.Partition(g, parts)
	}
	n := newOn(g, cfg, part)
	if mutate != nil {
		mutate(n)
	}
	installShortestPathRoutes(n)

	var aimds []*AIMDSource
	for i, u := range users {
		srv := servers[i%len(servers)]
		s := NewAIMDSource(n, u, packet.HostAddr(int(srv)), uint16(6000+i), 80, 1200)
		s.SetMaxRate(2e6)
		s.Start()
		aimds = append(aimds, s)
	}
	var cbrs []*CBRSource
	for i, b := range bots {
		srv := servers[i%len(servers)]
		s := NewCBRSource(n, b, packet.HostAddr(int(srv)), uint16(7000+i), 80,
			packet.ProtoTCP, 900, 1e6)
		s.Start()
		cbrs = append(cbrs, s)
	}
	// Loss on one backbone link exercises the per-link loss streams.
	lossy := g.LinkBetween(m.Regions[0][0], m.Victim.CoreA)
	if lossy < 0 {
		t.Fatal("no backbone link found for loss injection")
	}
	n.SetLinkLoss(lossy, 0.02)

	// Mid-run control actions from coordinator context: stop and restart a
	// source at a barrier, as an attack orchestrator would.
	n.Eng.ScheduleRank(800*time.Millisecond, n.Owner(SiteScript).Next(), cbrs[0].Stop)
	n.Eng.ScheduleRank(1200*time.Millisecond, n.Owner(SiteScript).Next(), cbrs[0].Start)

	n.Run(2 * time.Second)

	fp := shardFingerprint{
		delivered: n.Delivered(),
		noRoute:   n.DropsNoRoute(),
		queue:     n.DropsQueue(),
		pipeline:  n.DropsPipeline(),
		down:      n.DropsDown(),
		loss:      n.DropsLoss(),
		now:       n.Now(),
		windows:   n.Windows(),

		partitions: n.Shards(),
	}
	fp.offered, fp.arrived = n.LinkLedger()
	for _, s := range aimds {
		fp.ackedBytes = append(fp.ackedBytes, s.AckedBytes())
	}
	for _, s := range cbrs {
		fp.cbrSent = append(fp.cbrSent, s.Sent())
	}
	for _, srv := range servers {
		fp.recvBytes = append(fp.recvBytes, n.Host(srv).TotalRecvBytes())
	}
	for lid := range g.Links {
		pkts, _, drops := n.LinkStats(topo.LinkID(lid))
		fp.linkSentPkts = append(fp.linkSentPkts, pkts)
		fp.linkDrops = append(fp.linkDrops, drops)
	}
	return fp
}

func eqU64s(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWindowedRunShardCountInvariant is the heart of the sharded engine's
// correctness claim: the same simulation run under 1, 2, and 4 shards must
// produce identical counters, per-flow goodput, per-link statistics, and
// per-host receive totals — down to the last packet.
func TestWindowedRunShardCountInvariant(t *testing.T) {
	base := runSharded(t, 1)
	if base.delivered == 0 || base.loss == 0 {
		t.Fatalf("degenerate baseline: delivered=%d loss=%d", base.delivered, base.loss)
	}
	for _, k := range []int{2, 4} {
		if d := base.diff(runSharded(t, k)); d != "" {
			t.Fatalf("shards=%d: %s", k, d)
		}
	}
}

// diff names the first simulation result in which two runs differ ("" when
// none does). Engine telemetry — windows, partitions — is not compared.
func (base shardFingerprint) diff(got shardFingerprint) string {
	switch {
	case got.delivered != base.delivered || got.noRoute != base.noRoute ||
		got.queue != base.queue || got.pipeline != base.pipeline ||
		got.down != base.down || got.loss != base.loss || got.now != base.now:
		return fmt.Sprintf("counters diverge:\n  base %+v\n  got  %+v", base, got)
	case got.offered != base.offered || got.arrived != base.arrived:
		return fmt.Sprintf("link ledger diverges: base %d/%d, got %d/%d", base.offered, base.arrived, got.offered, got.arrived)
	case !eqU64s(got.ackedBytes, base.ackedBytes):
		return fmt.Sprintf("per-flow goodput diverges:\n  base %v\n  got  %v", base.ackedBytes, got.ackedBytes)
	case !eqU64s(got.cbrSent, base.cbrSent):
		return fmt.Sprintf("CBR send counts diverge:\n  base %v\n  got  %v", base.cbrSent, got.cbrSent)
	case !eqU64s(got.recvBytes, base.recvBytes):
		return "server receive totals diverge"
	case !eqU64s(got.linkSentPkts, base.linkSentPkts) || !eqU64s(got.linkDrops, base.linkDrops):
		return "per-link statistics diverge"
	}
	return ""
}

// TestWindowedRunPartitionInvariant is the twin of the shard-count test
// with the worker count held: the same two workers over the plain 2-way
// partition, over every finer one, and over the engine's own refinement
// must produce identical results — how finely the graph is cut is purely a
// performance decision. The refined run must really have more partitions
// than workers, or the claim path was not exercised.
func TestWindowedRunPartitionInvariant(t *testing.T) {
	const workers = 2
	base := runShardedOn(t, workers, workers, nil)
	if base.partitions != workers || base.delivered == 0 || base.loss == 0 {
		t.Fatalf("degenerate baseline: partitions=%d delivered=%d loss=%d", base.partitions, base.delivered, base.loss)
	}
	refined := runSharded(t, workers)
	if refined.partitions <= workers {
		t.Fatalf("engine cut %d partitions for %d workers; refinement is not in effect", refined.partitions, workers)
	}
	if d := base.diff(refined); d != "" {
		t.Fatalf("refined (%d partitions) vs %d-way: %s", refined.partitions, workers, d)
	}
	// The refinement kept the lookahead, so it pays for no extra barrier.
	if refined.windows != base.windows {
		t.Fatalf("refined run took %d windows, the %d-way partition %d", refined.windows, workers, base.windows)
	}
	// Finer than Refine would go (5 and 7 cut inside a ring, shrinking the
	// lookahead 50x): slower, still identical.
	for _, parts := range []int{3, 5, 7} {
		got := runShardedOn(t, workers, parts, nil)
		if got.partitions != parts {
			t.Fatalf("asked for %d partitions, got %d", parts, got.partitions)
		}
		if d := base.diff(got); d != "" {
			t.Fatalf("%d partitions vs %d-way: %s", parts, workers, d)
		}
	}
}

// TestWindowedCrossShardTraffic checks that a 4-shard run actually moves
// packets across shard boundaries (the invariance test would be vacuous if
// the partition kept all traffic local).
func TestWindowedCrossShardTraffic(t *testing.T) {
	m := topo.NewMultiRegion(3, 5)
	users := m.AttachUsers(4)
	servers := m.AttachServers(2)
	g := m.Graph()
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Shards = 4
	n := New(g, cfg)
	installShortestPathRoutes(n)
	if n.Shards() != 4 {
		t.Fatalf("shards = %d, want 4", n.Shards())
	}
	if n.Lookahead() != time.Duration(topo.BackboneDelay) {
		t.Fatalf("lookahead = %v, want backbone delay", n.Lookahead())
	}
	for i, u := range users {
		if n.ShardOf(u) == n.ShardOf(servers[0]) {
			t.Fatalf("user %d shares shard %d with the victim region", i, n.ShardOf(u))
		}
		s := NewCBRSource(n, u, packet.HostAddr(int(servers[0])), uint16(6000+i), 80,
			packet.ProtoUDP, 600, 2e6)
		s.Start()
	}
	n.Run(time.Second)
	if n.Delivered() == 0 {
		t.Fatal("no packets crossed the shard boundary")
	}
	if n.Windows() == 0 {
		t.Fatal("sharded run executed no barrier windows")
	}
}
