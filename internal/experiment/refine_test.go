package experiment

import (
	"testing"
	"time"

	"fastflex/internal/topo"
)

// engineProbe is a FabricCache that reads the engine's own telemetry off
// every fabric handed back after a run.
type engineProbe struct {
	FabricCache
	reps []engineStats
}

type engineStats struct {
	partitions  int
	lookahead   time.Duration
	windows     uint64
	gets, fresh uint64
}

func (p *engineProbe) Checkin(wf *WarmFabric) {
	n := wf.Fab.Net
	s := engineStats{partitions: n.Shards(), lookahead: n.Lookahead(), windows: n.Windows()}
	s.gets, s.fresh = n.PoolStats()
	p.reps = append(p.reps, s)
	p.FabricCache.Checkin(wf)
}

// TestFig3xShardedWorkersClaimPartitions runs the registry's short fig3x on
// two workers, three seeds over one warm fabric, and pins what makes the
// over-decomposed engine safe and worth having — all exact per seed, none a
// timing: the graph is cut finer than the worker count; the finer cut kept
// the backbone lookahead, so the run pays exactly one barrier per backbone
// delay, as the plain 2-way partition does; and from the second rep on the
// levelled packet pools allocate under 1 % of what they serve.
func TestFig3xShardedWorkersClaimPartitions(t *testing.T) {
	if testing.Short() {
		t.Skip("three 30 s ISP-scale runs")
	}
	const workers = 2
	probe := &engineProbe{FabricCache: FabricCache{Max: 1}}
	for seed := int64(1); seed <= 3; seed++ {
		cfg, _ := Fig3Scenario("fig3x", seed, true)
		cfg.Defense, cfg.Shards, cfg.Fabrics = DefenseFastFlex, workers, probe
		Figure3(cfg)
	}
	if probe.Hits != 2 {
		t.Fatalf("warm fabric reused %d times, want 2", probe.Hits)
	}
	short, _ := Fig3Scenario("fig3x", 1, true)
	for i, s := range probe.reps {
		if s.partitions <= workers {
			t.Errorf("rep %d: %d partitions for %d workers; refinement is not in effect", i+1, s.partitions, workers)
		}
		if s.lookahead != time.Duration(topo.BackboneDelay) {
			t.Errorf("rep %d: lookahead %v, want the backbone delay", i+1, s.lookahead)
		}
		if want := uint64(short.Duration / time.Duration(topo.BackboneDelay)); s.windows != want {
			t.Errorf("rep %d: %d barrier windows, want %d (one per backbone delay)", i+1, s.windows, want)
		}
		if i > 0 && s.fresh*100 > s.gets {
			t.Errorf("rep %d on a warm fabric allocated %d fresh packets for %d gets (> 1 %%)", i+1, s.fresh, s.gets)
		}
	}
}
