package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// contractFile mirrors BENCHMARK.json.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readContract(t *testing.T) contractFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contractFile
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestContractMatchesTables keeps BENCHMARK.json and the tables the code
// reads units from equal, and inside the limits the contract sets.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(c.Workloads), len(workloadNames))
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(c.EndToEnd) > 16 || len(c.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(c.EndToEnd), len(c.PerLayer))
	}
	check := func(kind string, got []contractMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the tables %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, table %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) {
				t.Errorf("%s metric name %q is outside [A-Za-z0-9_.-]", kind, g.Name)
			}
		}
	}
	check("end-to-end", c.EndToEnd, endToEnd)
	check("per-layer", c.PerLayer, perLayer)
	var setup *contractMetric
	for i := range c.EndToEnd {
		if c.EndToEnd[i].Bound <= 0 || c.EndToEnd[i].Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", c.EndToEnd[i].Name, c.EndToEnd[i].Bound)
		}
		if c.EndToEnd[i].Name == "setup_s" {
			setup = &c.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better")
	}
}

// TestSmoke runs a reduced-count untraced and traced pass over every
// workload and checks each reports exactly the contract's metrics, fails
// nothing, and is stamped non-comparable.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			rec, err := run(options{workload: w.Name, seed: 101, seconds: 1, trace: trace, reduced: true})
			if err != nil {
				t.Fatal(err)
			}
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, contract has %d", w.Name, trace, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				} else if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v %s, want a finite number in %s", w.Name, trace, m.Name, got.Value, got.Unit, m.Unit)
				} else if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, m.Name, got.Value)
				}
			}
			if rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s trace=%v: failed %d of %d: %v", w.Name, trace, rec.Failed, rec.Attempted, rec.Failures)
			}
			if rec.Comparable {
				t.Errorf("%s trace=%v: a reduced run must be stamped non-comparable", w.Name, trace)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(rec.contractLine()), &line); err != nil || len(line) != 4 {
				t.Errorf("%s trace=%v: contract line %q must be one object with 4 keys (%v)", w.Name, trace, rec.contractLine(), err)
			}
			if trace {
				var total float64
				for _, share := range rec.CPUShares {
					total += share
				}
				if math.Abs(total-1) > 0.02 {
					t.Errorf("%s: layer CPU shares sum to %.3f, want 1 +- 0.02 (%v)", w.Name, total, rec.CPUShares)
				}
			}
		}
	}
}

//go:noinline
func burn(d time.Duration) (x uint64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestDecodeCPUProfile decodes a profile written by this process and finds
// the function that burned the CPU, charged to the benchmark's own layer.
func TestDecodeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	frames, err := decodeCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var burned, total int64
	for _, f := range frames {
		total += f.NS
		if strings.HasSuffix(f.Func, ".burn") {
			burned += f.NS
			if !strings.HasSuffix(f.File, "bench_test.go") {
				t.Errorf("burn is in %q, want bench_test.go", f.File)
			}
		}
	}
	if total < int64(100*time.Millisecond) || float64(burned) < 0.8*float64(total) {
		t.Errorf("burn got %d of %d ns; want most of at least 100 ms", burned, total)
	}
	ns, sum := layerShares(frames, layerOf)
	if sum != total || float64(ns["bench"]) < 0.8*float64(total) {
		t.Errorf("layer shares %v of %d: want the bench layer to hold burn", ns, sum)
	}
	if _, err := decodeCPUProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

func TestFuncPackageAndLayer(t *testing.T) {
	for _, c := range []struct{ fn, file, pkg, layer string }{
		{"fastflex/internal/netsim.(*Network).arrive", "/r/internal/netsim/network.go", "fastflex/internal/netsim", "netsim"},
		{"fastflex/internal/netsim.(*fluidLink).advance", "/r/internal/netsim/fluid.go", "fastflex/internal/netsim", "netsim.fluid"},
		{"fastflex/internal/eventsim.(*ShardGroup).Run.func1", "/r/internal/eventsim/shard.go", "fastflex/internal/eventsim", "netsim.shard"},
		{"fastflex/internal/sketch.(*FlowTable).findSlot", "/r/internal/sketch/flowtable.go", "fastflex/internal/sketch", "booster"},
		{"fastflex/internal/packet.(*Packet).Len", "/r/internal/packet/packet.go", "fastflex/internal/packet", "other"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", "runtime", "runtime"},
		{"slices.SortFunc[go.shape.[]fastflex/internal/x.T]", "/go/src/slices/sort.go", "slices", "runtime"},
		{"main.measure", "/r/bench/sim.go", "main", "bench"},
	} {
		if got := funcPackage(c.fn); got != c.pkg {
			t.Errorf("funcPackage(%q) = %q, want %q", c.fn, got, c.pkg)
		}
		if got := layerOf(c.pkg, c.file); got != c.layer {
			t.Errorf("layerOf(%q, %q) = %q, want %q", c.pkg, c.file, got, c.layer)
		}
	}
}

func TestStatistics(t *testing.T) {
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(v); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(v); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := percentile(v, 0.5); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(v, 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	for _, c := range []struct {
		old, cur []float64
		better   string
		bound    float64
		want     string
	}{
		{[]float64{100, 101, 99}, []float64{103, 104, 102}, "lower", 0.05, "ok"},
		{[]float64{100, 101, 99}, []float64{107, 106, 108}, "lower", 0.05, "worse"},
		{[]float64{100, 101, 99}, []float64{93, 94, 92}, "higher", 0.05, "worse"},
		{[]float64{100, 101, 99}, []float64{107, 106, 108}, "higher", 0.05, "ok"},
		{[]float64{100, 120, 80, 90}, []float64{101, 121, 81, 95}, "lower", 0.05, "unresolved"},
		{[]float64{100, 120, 110, 115}, []float64{60, 70, 50, 65}, "lower", 0.05, "ok"}, // noisy, but every new run wins
		{nil, []float64{1}, "lower", 0.05, "missing"},
	} {
		if got := verdict(c.old, c.cur, c.better, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %s, %v) = %s, want %s", c.old, c.cur, c.better, c.bound, got, c.want)
		}
	}
}

// TestCompare checks the comparison's exit condition and its listing of
// moved simulated statistics.
func TestCompare(t *testing.T) {
	mk := func(speed float64, digest string, failed int) *result {
		res := &result{Workloads: map[string]*workloadPasses{}}
		for _, w := range workloadNames {
			rec := &record{Workload: w, Digest: digest, Attempted: 10, Failed: failed,
				Metrics: map[string]Metric{}, Counts: map[string]float64{"netsim.delivered": 7}}
			for _, d := range endToEnd {
				rec.Metrics[d.name] = Metric{Value: 100, Unit: d.unit}
			}
			rec.Metrics["sim_speed_x"] = Metric{Value: speed, Unit: "x"}
			res.Workloads[w] = &workloadPasses{Runs: []*record{rec}}
		}
		return res
	}
	if report, bad := compareResults(mk(30, "aa", 0), mk(29.5, "aa", 0)); bad || !strings.Contains(report, "simulated statistics identical") {
		t.Errorf("a 1.7%% dip within the bound must pass:\n%s", report)
	}
	if report, bad := compareResults(mk(30, "aa", 0), mk(26, "bb", 0)); !bad || !strings.Contains(report, "worse") || !strings.Contains(report, "aa -> bb") {
		t.Errorf("a 13%% dip must fail and the digest change be listed:\n%s", report)
	}
	if _, bad := compareResults(mk(30, "aa", 0), mk(30, "aa", 1)); !bad {
		t.Error("a higher fail ratio must fail the comparison")
	}
}
