package netsim

import (
	"testing"
	"time"

	"fastflex/internal/topo"
)

// fluidConservationRun drives fluid background flows from every remote
// region toward the victim servers over the multi-region topology —
// overloading the backbone so queues fill, drops accrue, and rate updates
// cross shard cuts — then audits byte conservation at two horizons.
//
// Returned values are (injected, delivered, dropped) at the 3 s horizon,
// after all flows stopped at 1 s and the backlog drained.
func fluidConservationRun(t *testing.T, shards int) (inj, del, drop float64) {
	t.Helper()
	m := topo.NewMultiRegion(3, 5)
	servers := m.AttachServers(3)
	g := m.Graph()

	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.Shards = shards
	cfg.Fluid = true
	n := New(g, cfg)
	installShortestPathRoutes(n)

	// Three flows per region: two overload the backbone toward the victim
	// (each region's 2×400 Mbps uplinks carry 3×300 Mbps offered), one
	// stays intra-region as an under-capacity control.
	var flows []*FluidFlow
	for ri, ring := range m.Regions {
		for j := 0; j < 2; j++ {
			f := n.NewFluidFlow(ring[j], servers[(ri+j)%len(servers)], 300e6, 5000)
			f.Start()
			flows = append(flows, f)
		}
		f := n.NewFluidFlow(ring[2], ring[4], 300e6, 5000)
		f.Start()
		flows = append(flows, f)
	}

	// Mid-run rate churn from coordinator context, so updates ride the
	// hand-off rings while packets are absent (pure fluid run).
	n.Eng.ScheduleRank(300*time.Millisecond, n.Owner(SiteScript).Next(), func() { flows[0].SetRate(80e6) })
	n.Eng.ScheduleRank(600*time.Millisecond, n.Owner(SiteScript).Next(), func() { flows[0].SetRate(300e6) })

	// Mid-run audit: with traffic still flowing and queues full, every
	// link must satisfy offered == delivered + dropped + queued exactly.
	n.Eng.ScheduleRank(700*time.Millisecond, n.Owner(SiteScript).Next(), func() {
		for _, l := range g.Links {
			offered, delivered, dropped, queued := n.FluidLinkStats(l.ID)
			if !relClose(offered, delivered+dropped+queued, 1e-9) {
				t.Errorf("shards=%d link %d mid-run conservation: offered %.3f != %.3f",
					shards, l.ID, offered, delivered+dropped+queued)
			}
		}
	})

	for _, f := range flows {
		n.Eng.ScheduleRank(time.Second, n.Owner(SiteScript).Next(), f.Stop)
	}
	n.Run(3 * time.Second)

	if q := n.FluidQueuedBytes(); q != 0 {
		t.Fatalf("shards=%d: %.3f bytes still queued after 2 s drain", shards, q)
	}
	for _, f := range flows {
		inj += f.InjectedBytes()
	}
	return inj, n.FluidDeliveredBytes(), n.FluidDroppedBytes()
}

// TestFluidConservationAcrossShards: bytes injected == delivered + dropped
// (+ zero in-flight after drain) at the horizon, for every shard count —
// and the totals agree across partitions.
func TestFluidConservationAcrossShards(t *testing.T) {
	type result struct{ inj, del, drop float64 }
	var base result
	for i, shards := range []int{1, 2, 4} {
		inj, del, drop := fluidConservationRun(t, shards)
		if inj <= 0 || del <= 0 || drop <= 0 {
			t.Fatalf("shards=%d degenerate run: inj=%.0f del=%.0f drop=%.0f",
				shards, inj, del, drop)
		}
		if !relClose(inj, del+drop, 1e-6) {
			t.Fatalf("shards=%d conservation: injected %.3f != delivered %.3f + dropped %.3f",
				shards, inj, del, drop)
		}
		if i == 0 {
			base = result{inj, del, drop}
			continue
		}
		if !relClose(inj, base.inj, 1e-9) || !relClose(del, base.del, 1e-6) ||
			!relClose(drop, base.drop, 1e-6) {
			t.Fatalf("shards=%d diverges from shards=1: (%.3f %.3f %.3f) vs (%.3f %.3f %.3f)",
				shards, inj, del, drop, base.inj, base.del, base.drop)
		}
	}
}
