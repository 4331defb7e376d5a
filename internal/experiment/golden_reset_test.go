package experiment

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"fastflex/internal/core"
	"fastflex/internal/netsim"
	"fastflex/internal/packet"
)

// Reset-vs-fresh byte identity: the warm-fabric reuse layer's entire
// contract is that running a reset fabric is indistinguishable — to the
// last float64 bit — from running a freshly built one at the same seed.
// These tests pin that against golden files recorded from fresh builds
// (fig3_sharded_golden.json is the same file the cold path is pinned to):
// a warm run must reproduce bytes no reset ever touched.

// warmFig3 runs the golden Figure-3 configuration at seed through a
// fabric source (nil = cold).
func warmFig3(seed int64, shards int, fabrics FabricSource) *Figure3Result {
	return Figure3(Figure3Config{
		Defense:     DefenseFastFlex,
		Duration:    14 * time.Second,
		AttackStart: 7 * time.Second,
		Seed:        seed,
		Shards:      shards,
		Fabrics:     fabrics,
	})
}

// TestFigure3TripleReuseGolden pins run→reset→run→reset→run at three
// distinct seeds on one fabric against its own golden: every leg of a
// long reuse chain must match a fresh build at that leg's seed, so state
// cannot accumulate across any number of resets.
func TestFigure3TripleReuseGolden(t *testing.T) {
	type tripleGolden struct {
		Seeds []int64      `json:"seeds"`
		Runs  []fig3Golden `json:"runs"`
	}
	seeds := []int64{7, 13, 21}

	if *updateGolden {
		// Record from FRESH builds: the golden is reset-vs-fresh by
		// construction, not reset-vs-first-reset.
		g := tripleGolden{Seeds: seeds}
		for _, s := range seeds {
			g.Runs = append(g.Runs, fig3GoldenOf(warmFig3(s, 1, nil)))
		}
		writeGolden(t, "fig3_reset_triple_golden.json", g)
		return
	}
	var want tripleGolden
	readGolden(t, "fig3_reset_triple_golden.json", &want)

	cache := NewFabricCache(0)
	for i, s := range seeds {
		got := fig3GoldenOf(warmFig3(s, 1, cache))
		t.Run(fmt.Sprintf("seed=%d", s), func(t *testing.T) {
			compareFig3Golden(t, got, want.Runs[i])
		})
	}
	if cache.Hits != uint64(len(seeds)-1) {
		t.Errorf("reuse chain hits = %d, want %d", cache.Hits, len(seeds)-1)
	}
}

// TestFigure3ResetShardedGoldenIdentical pins the engine's reset
// contract across the same grid the fresh-build golden is pinned on:
// shard counts {1,2,4} × GOMAXPROCS {1,4}, every cell a warm re-run that
// must reproduce fig3_sharded_golden.json exactly. Shard engines, SPSC
// rings, per-entity RNG streams, and rank owners all rewind under reset.
func TestFigure3ResetShardedGoldenIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var want fig3Golden
	readGolden(t, "fig3_sharded_golden.json", &want)
	for _, procs := range []int{1, 4} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(t *testing.T) {
				if testing.Short() && (procs != 4 || shards == 2) {
					t.Skip("short mode runs the widest configuration only")
				}
				runtime.GOMAXPROCS(procs)
				cache := NewFabricCache(0)
				warmFig3(3, shards, cache)
				got := fig3GoldenOf(warmFig3(7, shards, cache))
				if cache.Hits != 1 {
					t.Fatalf("second run should reuse the warm fabric, hits = %d", cache.Hits)
				}
				compareFig3Golden(t, got, want)
			})
		}
	}
}

// TestFigure3fResetVsFreshIdentical pins reset byte-identity with the
// hybrid fluid substrate on: a planet-scale run (fluid background flows,
// byte ledger, modeled-host accounting) on a twice-reset fabric must
// equal a fresh build — rendered text, metrics, and workload counters.
func TestFigure3fResetVsFreshIdentical(t *testing.T) {
	cfg := Figure3fConfig{
		HostsPerFlow: 250,
		Duration:     20 * time.Second,
		AttackStart:  8 * time.Second,
	}
	// Two workers, so the hand-off rings that carry fluid updates across
	// the cut are reset too.
	t.Run("shards=2", func(t *testing.T) {
		c := cfg
		c.Shards = 2

		c.Seed = 9
		fresh := Figure3f(c)

		cache := NewFabricCache(0)
		c.Fabrics = cache
		c.Seed = 5
		Figure3f(c) // populate both arms' fabrics at a decoy seed
		c.Seed = 9
		warm := Figure3f(c)
		if cache.Hits != 2 {
			t.Fatalf("warm comparison should reuse both arms' fabrics, hits = %d", cache.Hits)
		}

		if got, want := warm.String(), fresh.String(); got != want {
			t.Errorf("rendered result diverged:\nwarm:\n%s\nfresh:\n%s", got, want)
		}
		if warm.Events != fresh.Events || warm.Packets != fresh.Packets {
			t.Errorf("workload (%d ev, %d pkt) warm vs (%d ev, %d pkt) fresh",
				warm.Events, warm.Packets, fresh.Events, fresh.Packets)
		}
		if len(warm.Metrics) != len(fresh.Metrics) {
			t.Errorf("metric count %d warm vs %d fresh", len(warm.Metrics), len(fresh.Metrics))
		}
		for name, w := range fresh.Metrics {
			if g, ok := warm.Metrics[name]; !ok || g != w {
				t.Errorf("metric %q = %v warm, %v fresh", name, warm.Metrics[name], w)
			}
		}
	})
}

// TestFabricResetAllocs asserts the reset path does no per-node rebuild:
// rewinding a built fabric allocates a small bounded amount (route
// reinstall path scratch), orders of magnitude under construction, and
// independent of how much traffic the previous run carried.
func TestFabricResetAllocs(t *testing.T) {
	cfg := Figure3Config{Defense: DefenseFastFlex}
	cfg.fillDefaults()
	bt := BuildFig3Topology(cfg)
	var coreCfg core.Config
	for _, s := range bt.Servers {
		coreCfg.Protected = append(coreCfg.Protected, packet.HostAddr(int(s)))
	}
	coreCfg.Net = netsim.DefaultConfig()
	coreCfg.Net.Seed = 7
	fab, err := core.New(bt.G, coreCfg)
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := fab.Reset(7); err != nil {
			t.Fatalf("Reset: %v", err)
		}
	})
	// Routes reinstall via shortest-path scratch; everything else clears
	// in place. The figure-2 fabric builds with ~hundreds of thousands of
	// allocations — a reset must stay in the low thousands.
	if allocs > 5000 {
		t.Errorf("Fabric.Reset allocates %.0f objects per call; reset must rewind in place", allocs)
	}
}
