package experiment

import (
	"fmt"
	"math"
	"sort"
)

// Agg is a metric aggregated over seeds.
type Agg struct {
	Mean, Stddev float64
	N            int
}

func (a Agg) String() string {
	if a.N <= 1 {
		return fmt.Sprintf("%.3g", a.Mean)
	}
	return fmt.Sprintf("%.3g ± %.2g (n=%d)", a.Mean, a.Stddev, a.N)
}

// Aggregate folds per-seed results into per-experiment metric statistics:
// experiment ID → metric name → mean/stddev over the seeds that ran.
// Failed runs (Err != nil) are skipped.
func Aggregate(results []RunResult) map[string]map[string]Agg {
	samples := make(map[string]map[string][]float64)
	for _, rr := range results {
		if rr.Err != nil || rr.Result == nil {
			continue
		}
		//ffvet:ok accumulating into a map keyed by the same names is order-independent
		for name, v := range rr.Result.Metrics {
			m := samples[rr.ID]
			if m == nil {
				m = make(map[string][]float64)
				samples[rr.ID] = m
			}
			m[name] = append(m[name], v)
		}
	}
	out := make(map[string]map[string]Agg, len(samples))
	//ffvet:ok map-to-map transform; rendering sorts via MetricNames
	for id, m := range samples {
		out[id] = make(map[string]Agg, len(m))
		//ffvet:ok map-to-map transform; rendering sorts via MetricNames
		for name, vs := range m {
			out[id][name] = aggregate(vs)
		}
	}
	return out
}

func aggregate(vs []float64) Agg {
	n := float64(len(vs))
	var sum float64
	for _, v := range vs {
		sum += v
	}
	mean := sum / n
	var ss float64
	for _, v := range vs {
		d := v - mean
		ss += float64(d * d)
	}
	sd := 0.0
	if len(vs) > 1 {
		sd = math.Sqrt(ss / (n - 1))
	}
	return Agg{Mean: mean, Stddev: sd, N: len(vs)}
}

// MetricNames returns an experiment's aggregated metric names sorted, for
// deterministic rendering.
func MetricNames(m map[string]Agg) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ShapeChecks validates the qualitative claims of the paper against
// aggregated results: not exact numbers (which drift with seeds and
// horizons) but orderings and coarse thresholds that any healthy build
// must reproduce. CI's benchmark smoke job fails when any check trips
// (ffbench -check). It returns a description of each violated check.
func ShapeChecks(agg map[string]map[string]Agg) []string {
	var bad []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	if m, ok := agg["fig3"]; ok {
		ff := m["attack_mean_fastflex"].Mean
		bl := m["attack_mean_baseline-sdn"].Mean
		un := m["attack_mean_undefended"].Mean
		check(ff > bl+0.1,
			"fig3: fastflex attack-window mean %.2f not clearly above baseline %.2f", ff, bl)
		check(ff > un+0.1,
			"fig3: fastflex attack-window mean %.2f not clearly above undefended %.2f", ff, un)
		check(ff >= 0.75,
			"fig3: fastflex holds only %.2f of stable throughput under attack, want ≥0.75", ff)
		check(un <= 0.85,
			"fig3: undefended run holds %.2f of stable throughput — the attack is not landing", un)
	}
	if m, ok := agg["fig3f"]; ok {
		ff := m["attack_mean_fastflex"].Mean
		un := m["attack_mean_undefended"].Mean
		check(ff > un+0.1,
			"fig3f: fastflex attack-window mean %.2f not clearly above undefended %.2f", ff, un)
		check(ff >= 0.7,
			"fig3f: fastflex holds only %.2f of stable throughput under attack, want ≥0.7", ff)
		check(un <= 0.85,
			"fig3f: undefended run holds %.2f of stable throughput — the attack is not landing", un)
		check(m["modeled_hosts"].Mean >= 1e4,
			"fig3f: only %.0f modeled hosts — the planet-scale population is missing", m["modeled_hosts"].Mean)
		check(m["bg_conservation_err"].Mean <= 1e-3,
			"fig3f: fluid byte ledger off by %.2g, want ≤1e-3 (wire-transit residual only)",
			m["bg_conservation_err"].Mean)
		del := m["bg_delivered_frac"].Mean
		check(del > 0.5 && del <= 1+1e-9,
			"fig3f: background delivered fraction %.2f outside (0.5, 1]", del)
	}
	if m, ok := agg["a6"]; ok {
		pin := m["attack_mean_pin"].Mean
		all := m["attack_mean_reroute_all"].Mean
		check(pin > all+0.05,
			"a6: pinning (%.2f) not better than reroute-all (%.2f)", pin, all)
	}
	if m, ok := agg["a7"]; ok {
		st := m["transitions_stable"].Mean
		un := m["transitions_unstable"].Mean
		check(st*10 < un,
			"a7: hysteresis transitions %.0f not an order of magnitude below destabilized %.0f", st, un)
	}
	return bad
}
