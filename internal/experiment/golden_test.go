package experiment

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The golden files under testdata/ freeze short same-seed runs to the last
// float64 bit: same sample times, same float64 bit patterns, same attacker
// behavior. Regenerating with -update is only legitimate when a change is
// *supposed* to alter simulation semantics — never for a performance
// refactor.
var updateGolden = flag.Bool("update", false, "rewrite golden files from the current implementation")

// fig3Golden freezes one short Figure-3 FastFlex run: the headline numbers
// plus the full normalized-throughput series. encoding/json renders
// float64 with round-trippable precision, so equality below is exact.
type fig3Golden struct {
	StableMean       float64   `json:"stable_mean"`
	AttackMean       float64   `json:"attack_mean"`
	FractionDegraded float64   `json:"fraction_degraded"`
	Rolls            uint64    `json:"rolls"`
	T                []int64   `json:"t_ns"`
	V                []float64 `json:"v"`
}

// ablationGolden freezes an ablation's rendered table and headline metrics.
type ablationGolden struct {
	CSV     string             `json:"csv"`
	Metrics map[string]float64 `json:"metrics"`
}

func goldenPath(name string) string { return filepath.Join("testdata", name) }

func writeGolden(t *testing.T, name string, v any) {
	t.Helper()
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal golden: %v", err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatalf("mkdir testdata: %v", err)
	}
	if err := os.WriteFile(goldenPath(name), append(buf, '\n'), 0o644); err != nil {
		t.Fatalf("write golden: %v", err)
	}
	t.Logf("wrote %s", goldenPath(name))
}

func readGolden(t *testing.T, name string, v any) {
	t.Helper()
	buf, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("read golden (run with -update to record): %v", err)
	}
	if err := json.Unmarshal(buf, v); err != nil {
		t.Fatalf("unmarshal golden: %v", err)
	}
}

// TestAblationPinningGoldenIdentical pins ablation A6 (short variant) the
// same way. Pinning runs two full fabric deployments through attack-driven
// mode changes, so it additionally covers pipeline-cache invalidation: a
// stale compiled pipeline after a mode flip would shift goodput here.
func TestAblationPinningGoldenIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two 30s-horizon fabric runs; covered by TestFigure3ShardedGoldenIdentical in short mode")
	}
	r := AblationPinning(RunOpts{Seed: 7, Short: true, Shards: 1})
	got := ablationGolden{CSV: r.Table.CSV(), Metrics: r.Metrics}
	if *updateGolden {
		writeGolden(t, "a6_golden.json", got)
		return
	}
	var want ablationGolden
	readGolden(t, "a6_golden.json", &want)

	if got.CSV != want.CSV {
		t.Errorf("table diverged from golden:\ngot:\n%s\nwant:\n%s", got.CSV, want.CSV)
	}
	if len(got.Metrics) != len(want.Metrics) {
		t.Errorf("metric count %d, golden %d", len(got.Metrics), len(want.Metrics))
	}
	for name, w := range want.Metrics {
		if g, ok := got.Metrics[name]; !ok || g != w {
			t.Errorf("metric %q = %v, golden %v", name, got.Metrics[name], w)
		}
	}
}
