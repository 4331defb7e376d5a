package experiment

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
	"time"
)

// fig3fSmallCfg is a cut-down planet-scale config: small enough for a unit
// test, large enough that fluid flows congest ring links and cross shard
// cuts in both directions.
func fig3fSmallCfg(shards int) Figure3fConfig {
	cfg := Figure3fConfig{
		Seed:         3,
		Shards:       shards,
		HostsPerFlow: 250,
		Duration:     10 * time.Second,
		AttackStart:  6 * time.Second,
	}
	cfg.fillDefaults()
	return cfg
}

// TestFigure3fShardInvariant pins the hybrid substrate's determinism claim
// on the windowed engine: the FastFlex arm of a short planet-scale run must
// be byte-identical across shard counts 1, 2, and 4 — foreground series and
// the fluid byte ledger alike.
func TestFigure3fShardInvariant(t *testing.T) {
	arm := func(shards int) (*Figure3Result, fluidLedger) {
		var led fluidLedger
		cfg := fig3fSmallCfg(shards).figure3(&led)
		cfg.Defense = DefenseFastFlex
		return Figure3(cfg), led
	}
	base, baseLed := arm(1)
	for _, k := range []int{2, 4} {
		got, led := arm(k)
		if got.StableMean != base.StableMean ||
			got.AttackMean != base.AttackMean ||
			got.Rolls != base.Rolls {
			t.Errorf("shards=%d: headline diverged: stable %v/%v attack %v/%v rolls %d/%d",
				k, got.StableMean, base.StableMean,
				got.AttackMean, base.AttackMean, got.Rolls, base.Rolls)
		}
		gs, bs := got.Throughput, base.Throughput
		if len(gs.V) != len(bs.V) {
			t.Fatalf("shards=%d: series length %d, want %d", k, len(gs.V), len(bs.V))
		}
		for i := range gs.V {
			if gs.T[i] != bs.T[i] || gs.V[i] != bs.V[i] {
				t.Fatalf("shards=%d: sample %d diverged: (%v,%v) vs (%v,%v)",
					k, i, gs.T[i], gs.V[i], bs.T[i], bs.V[i])
			}
		}
		if led != baseLed {
			t.Errorf("shards=%d: fluid ledger %+v, want %+v", k, led, baseLed)
		}
	}
}

// TestFigure3fMetrics sanity-checks the headline metrics of a short run:
// the modeled-host count matches the builder's arithmetic and the fluid
// ledger balances to within the wire-transit residual (flows never stop, so
// bytes in flight on link propagation at the horizon are absent from the
// queued term).
func TestFigure3fMetrics(t *testing.T) {
	cfg := fig3fSmallCfg(0)
	res := Figure3f(cfg)
	// 6 regions with rings 4,8,16,4,8,16: per ring (size-2) intra flows plus
	// one victim flow, 250 hosts each, plus the packet-level foreground.
	wantFlows := 0
	for r := 0; r < cfg.Regions; r++ {
		wantFlows += cfg.BaseRing<<uint(r%3) - 1
	}
	wantHosts := float64(wantFlows*cfg.HostsPerFlow + cfg.Users + cfg.Servers + cfg.Bots)
	if got := res.Metrics["modeled_hosts"]; got != wantHosts {
		t.Errorf("modeled_hosts = %v, want %v (%d fluid flows)", got, wantHosts, wantFlows)
	}
	if err := res.Metrics["bg_conservation_err"]; err > 1e-3 {
		t.Errorf("bg_conservation_err = %v, want <= 1e-3", err)
	}
	if frac := res.Metrics["bg_delivered_frac"]; frac <= 0 || frac > 1 {
		t.Errorf("bg_delivered_frac = %v, want (0, 1]", frac)
	}
	if res.Metrics["events_per_modeled_host"] <= 0 {
		t.Error("events_per_modeled_host missing")
	}
	if res.Metrics["packet_equiv_event_ratio"] <= 0 {
		t.Error("packet_equiv_event_ratio missing")
	}
}

// fig3fGolden freezes one full Figure-3f comparison (both arms): the
// rendered text by hash, the workload counters, and every metric
// bit-exact.
type fig3fGolden struct {
	TextFNV string             `json:"text_fnv64a"`
	Events  uint64             `json:"events"`
	Packets uint64             `json:"packets"`
	Metrics map[string]float64 `json:"metrics"`
}

// TestFigure3fGoldenIdentical pins the planet-scale hybrid comparison to
// bytes recorded while fig3f still carried its own copy of the rolling-LFA
// arm: the shared arm in Figure3 must reproduce them on both the serial
// and the windowed engine.
func TestFigure3fGoldenIdentical(t *testing.T) {
	got := map[string]fig3fGolden{}
	for _, shards := range []int{0, 2} {
		if testing.Short() && shards != 0 {
			continue // short mode runs the serial engine only
		}
		r := Figure3f(Figure3fConfig{
			Seed: 7, Shards: shards, HostsPerFlow: 250,
			Duration: 20 * time.Second, AttackStart: 8 * time.Second,
		})
		h := fnv.New64a()
		h.Write([]byte(r.String()))
		got[fmt.Sprintf("shards=%d", shards)] = fig3fGolden{
			TextFNV: fmt.Sprintf("%016x", h.Sum64()),
			Events:  r.Events, Packets: r.Packets, Metrics: r.Metrics,
		}
	}
	if *updateGolden {
		writeGolden(t, "fig3f_golden.json", got)
		return
	}
	var want map[string]fig3fGolden
	readGolden(t, "fig3f_golden.json", &want)
	for name, g := range got {
		if !reflect.DeepEqual(g, want[name]) {
			t.Errorf("%s diverged from golden:\ngot  %+v\nwant %+v", name, g, want[name])
		}
	}
}
