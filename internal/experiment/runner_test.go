package experiment

import (
	"reflect"
	"testing"
)

// a5Defs returns the registry subset fast enough for a unit test (A5 runs
// in tens of milliseconds; the rest simulate minutes of virtual time).
func a5Defs(t *testing.T) []Def {
	t.Helper()
	for _, d := range Registry() {
		if d.ID == "a5" {
			return []Def{d}
		}
	}
	t.Fatal("a5 missing from registry")
	return nil
}

// TestRunnerParallelMatchesSerial pins the concurrency-boundary contract:
// the same specs produce identical Results (tables, notes, metrics) for
// any worker count, in spec order.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	defs := a5Defs(t)
	seeds := []int64{1, 2, 3, 4}
	specs := Specs(defs, seeds, false, 0)
	serial := (&Runner{Workers: 1}).Run(specs)
	parallel := (&Runner{Workers: 4}).Run(specs)
	if len(serial) != len(specs) || len(parallel) != len(specs) {
		t.Fatalf("got %d/%d results for %d specs", len(serial), len(parallel), len(specs))
	}
	for i := range specs {
		s, p := serial[i], parallel[i]
		if s.Err != nil || p.Err != nil {
			t.Fatalf("spec %d errored: serial=%v parallel=%v", i, s.Err, p.Err)
		}
		if s.ID != p.ID || s.Seed != p.Seed {
			t.Fatalf("spec %d order diverged: %s/%d vs %s/%d", i, s.ID, s.Seed, p.ID, p.Seed)
		}
		if s.Result.String() != p.Result.String() {
			t.Errorf("spec %d (%s seed %d): rendered result differs between worker counts", i, s.ID, s.Seed)
		}
		if !reflect.DeepEqual(s.Result.Metrics, p.Result.Metrics) {
			t.Errorf("spec %d (%s seed %d): metrics differ: %v vs %v", i, s.ID, s.Seed, s.Result.Metrics, p.Result.Metrics)
		}
	}
}

// TestRunnerRecoversPanics ensures one crashing experiment is reported in
// its RunResult without taking down the pool or the other runs.
func TestRunnerRecoversPanics(t *testing.T) {
	boom := Def{ID: "boom", Desc: "always panics", Seeded: true,
		Run: func(RunOpts) *Result { panic("kaboom") }}
	specs := Specs(append(a5Defs(t), boom), []int64{1}, false, 0)
	results := (&Runner{Workers: 2}).Run(specs)
	if results[0].Err != nil || results[0].Result == nil {
		t.Fatalf("healthy run failed: %+v", results[0])
	}
	if results[1].Err == nil {
		t.Fatal("panicking run reported no error")
	}
}

// TestRegistryShortWarmMatchesCold runs every registry experiment with a
// short variant down the one run path three times — no fabric source, then
// twice through one FabricCache (cold fill, warm reuse) — and requires the
// same rendered bytes each time.
func TestRegistryShortWarmMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every short registry variant three times")
	}
	for _, d := range Registry() {
		if !d.HasShort {
			continue
		}
		t.Run(d.ID, func(t *testing.T) {
			opts := RunOpts{Seed: 1, Short: true}
			cold := d.Run(opts).String()
			cache := NewFabricCache(0)
			opts.Fabrics = cache
			fill, warm := d.Run(opts).String(), d.Run(opts).String()
			if cache.Hits == 0 {
				t.Errorf("second pass reused no fabric (hits=%d misses=%d)", cache.Hits, cache.Misses)
			}
			if fill != cold || warm != cold {
				t.Errorf("rendered result depends on the fabric source:\ncold:\n%s\nfill:\n%s\nwarm:\n%s", cold, fill, warm)
			}
		})
	}
}

// TestSpecsExpansion checks seeded/unseeded fan-out and ordering.
func TestSpecsExpansion(t *testing.T) {
	defs := []Def{
		{ID: "u", Run: func(RunOpts) *Result { return &Result{} }},
		{ID: "s", Seeded: true, Run: func(RunOpts) *Result { return &Result{} }},
	}
	specs := Specs(defs, []int64{1, 2, 3}, false, 0)
	var got []string
	for _, sp := range specs {
		got = append(got, sp.Def.ID)
	}
	want := []string{"u", "s", "s", "s"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("expansion order = %v, want %v", got, want)
	}
	if specs[0].Seed != 1 || specs[3].Seed != 3 {
		t.Fatalf("seed assignment wrong: %+v", specs)
	}
}

// TestAggregateAndShape sanity-checks the stddev math and the shape-check
// plumbing on synthetic results.
func TestAggregateAndShape(t *testing.T) {
	mk := func(id string, m map[string]float64) RunResult {
		return RunResult{ID: id, Result: &Result{Metrics: m}}
	}
	agg := Aggregate([]RunResult{
		mk("fig3", map[string]float64{"attack_mean_fastflex": 0.9, "attack_mean_baseline-sdn": 0.5, "attack_mean_undefended": 0.5}),
		mk("fig3", map[string]float64{"attack_mean_fastflex": 0.8, "attack_mean_baseline-sdn": 0.6, "attack_mean_undefended": 0.5}),
	})
	a := agg["fig3"]["attack_mean_fastflex"]
	if a.N != 2 || a.Mean < 0.849 || a.Mean > 0.851 {
		t.Fatalf("bad aggregate: %+v", a)
	}
	if a.Stddev < 0.07 || a.Stddev > 0.071 {
		t.Fatalf("bad stddev: %+v", a)
	}
	if errs := ShapeChecks(agg); len(errs) != 0 {
		t.Fatalf("healthy metrics tripped shape checks: %v", errs)
	}
	bad := Aggregate([]RunResult{
		mk("fig3", map[string]float64{"attack_mean_fastflex": 0.5, "attack_mean_baseline-sdn": 0.6, "attack_mean_undefended": 0.5}),
	})
	if errs := ShapeChecks(bad); len(errs) == 0 {
		t.Fatal("inverted fig3 ordering passed shape checks")
	}
}
