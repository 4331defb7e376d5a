package netsim_test

// The packet pools are netsim's, but what stresses them — probe re-floods,
// mode-change floods, heartbeats — only exists on a defended fabric, which
// is assembled above netsim. These two tests therefore live in netsim's
// external test package and drive the pools through the fabric.

import (
	"testing"
	"time"

	"fastflex/internal/attack"
	"fastflex/internal/core"
	"fastflex/internal/experiment"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// pooled sums Pool.Free over the network's partitions.
func pooled(n *netsim.Network) (free int) {
	seen := make(map[*packet.Pool]bool)
	for id := range n.G.Nodes {
		if p := n.PoolAt(topo.NodeID(id)); !seen[p] {
			seen[p] = true
			free += p.Free()
		}
	}
	return free
}

// poolLedger is a FabricSource holding one fabric that reads the pools every
// time a run hands it back.
type poolLedger struct {
	experiment.FabricCache
	free        []int
	gets, fresh []uint64
}

func (l *poolLedger) Checkin(wf *experiment.WarmFabric) {
	g, f := wf.Fab.Net.PoolStats()
	l.free, l.gets, l.fresh = append(l.free, pooled(wf.Fab.Net)), append(l.gets, g), append(l.fresh, f)
	l.FabricCache.Checkin(wf)
}

// TestWarmPoolsConserved runs the registry's short fig3x (defended, two
// workers, five partitions) six times over one warm fabric, the same seed
// every time, and balances the pools between reps. The reps are identical,
// so the same number of packets is out on links each time a rep ends, and
// whatever the free lists gained since the previous rep ended must have been
// allocated in between: free(k) - free(k-1) == News(k), exactly.
//
//   - More than that means something entered a pool from outside. That is
//     the trap this guards: recycling packets that were never taken from a
//     pool (each rep's literal-built probes, say) grows the free lists by
//     that many objects per rep, without bound.
//   - Less than that means pool-born packets leak to the collector (a drop
//     path that forgets to free, a reset that drops a ring), which the pools
//     then pay for in fresh allocations, rep after rep.
//
// And from the second rep on the levelled pools serve under 1 % of their
// gets from fresh allocations although every probe and every flood copy now
// comes from them.
func TestWarmPoolsConserved(t *testing.T) {
	if testing.Short() {
		t.Skip("six 30 s ISP-scale runs")
	}
	ledger := &poolLedger{FabricCache: experiment.FabricCache{Max: 1}}
	for rep := 1; rep <= 6; rep++ {
		cfg, _ := experiment.Fig3Scenario("fig3x", 7, true)
		cfg.Defense, cfg.Shards, cfg.Fabrics = experiment.DefenseFastFlex, 2, ledger
		experiment.Figure3(cfg)
	}
	if ledger.Hits != 5 {
		t.Fatalf("warm fabric reused %d times, want 5", ledger.Hits)
	}
	for k := 1; k < len(ledger.free); k++ {
		rep, grew, fresh, gets := k+1, ledger.free[k]-ledger.free[k-1], ledger.fresh[k], ledger.gets[k]
		t.Logf("rep %d: gets=%d fresh=%d pooled=%d", rep, gets, fresh, ledger.free[k])
		if grew != int(fresh) {
			t.Errorf("rep %d: free lists grew by %d packets but %d were allocated (%+d came from outside the pools or leaked out of them)",
				rep, grew, fresh, grew-int(fresh))
		}
		if fresh*100 > gets {
			t.Errorf("rep %d on a warm fabric allocated %d fresh packets for %d gets (> 1 %%)", rep, fresh, gets)
		}
		if gets != ledger.gets[1] {
			t.Errorf("rep %d served %d packets, rep 2 served %d: same-seed reps are not identical", rep, gets, ledger.gets[1])
		}
	}
}

// TestDefendedSteadyStateZeroAlloc is TestForwardSteadyStateZeroAlloc for
// the defended path: a warm Figure-2 fabric under attack, modes active,
// utilization probes re-flooding every 50 ms, mode-change probes re-asserted
// every 500 ms, heartbeats, AIMD users arming and dropping a retransmission
// timer per segment. Ten simulated milliseconds of that (some 1 500 switch
// passes) must cost next to nothing on the heap: every packet, probe, flood
// copy, event and timer is recycled.
func TestDefendedSteadyStateZeroAlloc(t *testing.T) {
	f := topo.NewFigure2()
	users, bots, servers := f.AttachUsers(8), f.AttachBots(40), f.AttachServers(8)
	var srv []packet.Addr
	for _, s := range servers {
		srv = append(srv, packet.HostAddr(int(s)))
	}
	cfg := core.Config{Protected: srv, Net: netsim.DefaultConfig()}
	cfg.Net.Seed = 3
	fab, err := core.New(f.G, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := fab.Net
	for i, u := range users {
		s := netsim.NewAIMDSource(n, u, srv[i%len(srv)], uint16(6000+i), 80, 1200)
		s.SetMaxRate(5e6)
		s.Start()
	}
	// No re-scouting inside the measured window: a traceroute campaign is
	// attacker bookkeeping and allocates.
	attack.NewCrossfire(n, attack.CrossfireConfig{
		Bots: bots, Servers: srv, BotRateBps: 1.5e6, FlowsPerBot: 2, TargetLinks: 1,
		Rolling: true, ScoutEvery: time.Hour, Start: time.Second,
	}).Launch()
	fab.Run(8 * time.Second)
	if !fab.AttackDetected() || len(fab.ModeEvents()) == 0 {
		t.Fatal("vacuous: the attack was not detected, no mode is active")
	}
	gets, fresh := n.PoolStats()
	passes := n.PacketsProcessed()

	const runs = 100 // one simulated second
	allocs := testing.AllocsPerRun(runs, func() { fab.Run(n.Now() + 10*time.Millisecond) })
	if allocs > 2 {
		t.Errorf("10 ms of defended steady state allocate %.1f objects, want <= 2", allocs)
	}
	g, fr := n.PoolStats()
	if perRun := (n.PacketsProcessed() - passes) / runs; perRun < 500 {
		t.Fatalf("vacuous: %d switch passes per 10 ms", perRun)
	}
	if fr != fresh {
		t.Errorf("%d pool misses for %d gets in steady state, want 0", fr-fresh, g-gets)
	}
}
