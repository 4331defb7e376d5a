package experiment

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The golden files under testdata/ were recorded from the pre-compilation
// interpreter forwarding path (PR 2): every packet walked the installed
// program list, testing ModeSet.Has per program, and every FIB lookup went
// through map[packet.Addr]. The compiled forwarding plane (dense FIBs,
// mode-epoch pipeline caching) must reproduce those runs byte-for-byte:
// same sample times, same float64 bit patterns, same attacker behavior.
// Regenerating with -update is only legitimate when a change is *supposed*
// to alter simulation semantics — never for a performance refactor.
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

func runGoldenFig3() *Figure3Result {
	return Figure3(Figure3Config{
		Defense:     DefenseFastFlex,
		Duration:    14 * time.Second,
		AttackStart: 7 * time.Second,
		Seed:        7,
	})
}

// TestFigure3GoldenIdentical pins the compiled forwarding plane to the
// recorded interpreter-path output: a same-seed Figure-3 run must be
// byte-identical to the pre-change implementation.
func TestFigure3GoldenIdentical(t *testing.T) {
	r := runGoldenFig3()
	got := fig3Golden{
		StableMean:       r.StableMean,
		AttackMean:       r.AttackMean,
		FractionDegraded: r.FractionDegraded,
		Rolls:            r.Rolls,
	}
	for i := range r.Throughput.T {
		got.T = append(got.T, int64(r.Throughput.T[i]))
		got.V = append(got.V, r.Throughput.V[i])
	}
	if *updateGolden {
		writeGolden(t, "fig3_golden.json", got)
		return
	}
	var want fig3Golden
	readGolden(t, "fig3_golden.json", &want)

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
		if got.T[i] != want.T[i] {
			t.Fatalf("sample %d: time %v, golden %v", i, got.T[i], want.T[i])
		}
		if got.V[i] != want.V[i] {
			t.Fatalf("sample %d (t=%v): value %v, golden %v",
				i, time.Duration(got.T[i]), got.V[i], want.V[i])
		}
	}
}

// TestAblationPinningGoldenIdentical pins ablation A6 (short variant) the
// same way. Pinning runs two full fabric deployments through attack-driven
// mode changes, so it additionally covers pipeline-cache invalidation: a
// stale compiled pipeline after a mode flip would shift goodput here.
func TestAblationPinningGoldenIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two 30s-horizon fabric runs; covered by TestFigure3GoldenIdentical in short mode")
	}
	r := AblationPinning(RunOpts{Seed: 7, Short: true})
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
