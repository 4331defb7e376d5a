package experiment

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// runGoldenFig3Sharded is the pinned short FastFlex Figure-3 run at a given
// worker count. There is one golden file, because every (GOMAXPROCS,
// shards) combination must reproduce it exactly.
func runGoldenFig3Sharded(shards int) *Figure3Result {
	return Figure3(Figure3Config{
		Defense:     DefenseFastFlex,
		Duration:    14 * time.Second,
		AttackStart: 7 * time.Second,
		Seed:        7,
		Shards:      shards,
	})
}

// TestFigure3ShardedGoldenIdentical pins the engine's determinism claim: a Figure-3 run must be byte-identical across shard
// counts 1, 2, and 4 and across GOMAXPROCS 1 and 4 — i.e. invariant both
// in how the event space is partitioned and in how the Go scheduler
// interleaves the shard workers.
func TestFigure3ShardedGoldenIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	if *updateGolden {
		runtime.GOMAXPROCS(4)
		r := runGoldenFig3Sharded(4)
		writeGolden(t, "fig3_sharded_golden.json", fig3GoldenOf(r))
		return
	}
	var want fig3Golden
	readGolden(t, "fig3_sharded_golden.json", &want)
	for _, procs := range []int{1, 4} {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(t *testing.T) {
				if testing.Short() && (procs != 4 || shards == 2) {
					t.Skip("short mode runs the widest configuration only")
				}
				runtime.GOMAXPROCS(procs)
				got := fig3GoldenOf(runGoldenFig3Sharded(shards))
				compareFig3Golden(t, got, want)
			})
		}
	}
}

func fig3GoldenOf(r *Figure3Result) fig3Golden {
	g := fig3Golden{
		StableMean:       r.StableMean,
		AttackMean:       r.AttackMean,
		FractionDegraded: r.FractionDegraded,
		Rolls:            r.Rolls,
	}
	for i := range r.Throughput.T {
		g.T = append(g.T, int64(r.Throughput.T[i]))
		g.V = append(g.V, r.Throughput.V[i])
	}
	return g
}

func compareFig3Golden(t *testing.T, got, want fig3Golden) {
	t.Helper()
	if got.StableMean != want.StableMean {
		t.Errorf("StableMean = %v, golden %v", got.StableMean, want.StableMean)
	}
	if got.AttackMean != want.AttackMean {
		t.Errorf("AttackMean = %v, golden %v", got.AttackMean, want.AttackMean)
	}
	if got.FractionDegraded != want.FractionDegraded {
		t.Errorf("FractionDegraded = %v, golden %v", got.FractionDegraded, want.FractionDegraded)
	}
	if got.Rolls != want.Rolls {
		t.Errorf("Rolls = %d, golden %d", got.Rolls, want.Rolls)
	}
	if len(got.T) != len(want.T) {
		t.Fatalf("series length %d, golden %d", len(got.T), len(want.T))
	}
	for i := range got.T {
		if got.T[i] != want.T[i] || got.V[i] != want.V[i] {
			t.Fatalf("sample %d: (t=%v, v=%v), golden (t=%v, v=%v)",
				i, got.T[i], got.V[i], want.T[i], want.V[i])
		}
	}
}

// TestAblationPinningShardedEquivalence proves ablation A6 — two complete
// fabric deployments driven through attack-induced mode changes — produces
// an identical table and metrics whether the engine runs 1 shard or 4.
func TestAblationPinningShardedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("four 30s-horizon fabric runs; fig3 sharded golden covers short mode")
	}
	one := AblationPinning(RunOpts{Seed: 7, Short: true, Shards: 1})
	four := AblationPinning(RunOpts{Seed: 7, Short: true, Shards: 4})
	if got, want := four.Table.CSV(), one.Table.CSV(); got != want {
		t.Errorf("A6 table diverges between shards=1 and shards=4:\nshards=4:\n%s\nshards=1:\n%s", got, want)
	}
	if len(four.Metrics) != len(one.Metrics) {
		t.Errorf("metric count %d vs %d", len(four.Metrics), len(one.Metrics))
	}
	for name, w := range one.Metrics {
		if g, ok := four.Metrics[name]; !ok || g != w {
			t.Errorf("metric %q = %v under shards=4, %v under shards=1", name, four.Metrics[name], w)
		}
	}
}
