package main

import (
	"encoding/json"
	"fmt"
	"os"

	"fastflex/internal/experiment"
)

// Benchstat-style baseline comparison: load a committed BENCH_ffbench.json,
// line up per-experiment wall times and allocation totals with the current
// run, print a delta table, and report regression when an experiment (or
// the total) is worse than the baseline by more than the threshold.
//
// Wall time is noisy — CI machines share cores — so three guards keep the
// gate from flapping: the gated statistic is the MINIMUM wall time over
// the run's seeds (the min is the run least disturbed by the machine, the
// estimator benchstat recommends for wall clocks), experiments whose
// baseline min is under compareMinWallMS are reported but never gate, and
// allocation — which is deterministic per seed, not noisy — gates on the
// mean with its own tighter threshold and an absolute floor.
const (
	compareMinWallMS = 200
	// compareMinAllocMB: experiments allocating under this at baseline are
	// never gated on allocation (fixed-size table experiments sit in the
	// noise floor of runtime bookkeeping).
	compareMinAllocMB = 1
)

// statsByID reduces each experiment's non-failed runs to the two gated
// statistics: min wall ms and mean allocated MB. allocExact reports
// whether every run contributing to the alloc mean was measured with the
// worker pool to itself (alloc_exact); inexact means carry cross-worker
// bleed and are reported but never gated.
func statsByID(exps []experimentReport) (minWall, meanAlloc map[string]float64, allocExact map[string]bool) {
	minWall = make(map[string]float64, len(exps))
	meanAlloc = make(map[string]float64, len(exps))
	allocExact = make(map[string]bool, len(exps))
	for _, er := range exps {
		var allocSum float64
		n := 0
		exact := true
		for _, r := range er.Runs {
			if r.Error != "" {
				continue
			}
			if cur, ok := minWall[er.ID]; !ok || r.WallMS < cur {
				minWall[er.ID] = r.WallMS
			}
			allocSum += r.AllocMB
			exact = exact && r.AllocExact
			n++
		}
		if n > 0 {
			meanAlloc[er.ID] = allocSum / float64(n)
			allocExact[er.ID] = exact
		}
	}
	return minWall, meanAlloc, allocExact
}

// currentStats renders this run's results into the same experimentReport
// shape the JSON report uses, so baseline and current reductions share one
// code path.
func currentStats(results []experiment.RunResult) (minWall, meanAlloc map[string]float64, allocExact map[string]bool) {
	byID := make(map[string]*experimentReport)
	var order []string
	for _, rr := range results {
		er, ok := byID[rr.ID]
		if !ok {
			er = &experimentReport{ID: rr.ID}
			byID[rr.ID] = er
			order = append(order, rr.ID)
		}
		run := runReport{
			WallMS:     float64(rr.Wall.Microseconds()) / 1e3,
			AllocMB:    float64(rr.AllocBytes) / (1 << 20),
			AllocExact: rr.AllocExact,
		}
		if rr.Err != nil {
			run.Error = rr.Err.Error()
		}
		er.Runs = append(er.Runs, run)
	}
	exps := make([]experimentReport, 0, len(order))
	for _, id := range order {
		exps = append(exps, *byID[id])
	}
	return statsByID(exps)
}

// compareBaseline prints the comparison table and returns whether any
// gated row regressed beyond its threshold. allocThresholdPct gates mean
// allocated bytes per run; allocation is reproducible for a fixed
// configuration, so its default margin (10%) only absorbs Go-version and
// map-layout jitter — but runs under a different engine configuration
// than the baseline (e.g. a different -shards, which legitimately carries
// per-partition pools) pass a looser -aregress.
func compareBaseline(path string, thresholdPct, allocThresholdPct float64,
	defs []experiment.Def, results []experiment.RunResult) (regressed bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return false, fmt.Errorf("parsing %s: %w", path, err)
	}
	baseWall, baseAlloc, baseExact := statsByID(base.Experiments)
	curWall, curAlloc, curExact := currentStats(results)
	var offenders []string

	fmt.Printf("-- min wall / mean alloc vs %s (wall %+.0f%%, alloc %+.0f%%) --\n",
		path, thresholdPct, allocThresholdPct)
	fmt.Printf("  %-10s %12s %12s %8s %11s %11s %8s\n",
		"experiment", "base ms", "now ms", "delta", "base MB", "now MB", "delta")
	var baseWallTotal, curWallTotal float64
	for _, d := range defs {
		b, okB := baseWall[d.ID]
		c, okC := curWall[d.ID]
		if !okB || !okC {
			fmt.Printf("  %-10s %12s %12s %8s %11s %11s %8s\n",
				d.ID, dash(okB, b), dash(okC, c), "n/a",
				dash(false, 0), dash(false, 0), "n/a")
			continue
		}
		baseWallTotal += b
		curWallTotal += c
		wallDelta := (c - b) / b * 100
		ba, ca := baseAlloc[d.ID], curAlloc[d.ID]
		var allocDelta float64
		if ba > 0 {
			allocDelta = (ca - ba) / ba * 100
		}
		mark := ""
		if wallDelta > thresholdPct {
			if b >= compareMinWallMS {
				regressed = true
				mark = "  WALL REGRESSION"
				offenders = append(offenders, fmt.Sprintf(
					"%s: min wall %.1f ms -> %.1f ms (%+.1f%%, threshold %+.0f%%)",
					d.ID, b, c, wallDelta, thresholdPct))
			} else {
				mark = "  (under min wall, not gated)"
			}
		}
		if allocDelta > allocThresholdPct && ba >= compareMinAllocMB {
			if baseExact[d.ID] && curExact[d.ID] {
				regressed = true
				mark += "  ALLOC REGRESSION"
				offenders = append(offenders, fmt.Sprintf(
					"%s: mean alloc %.2f MB -> %.2f MB (%+.1f%%, threshold %+.0f%%)",
					d.ID, ba, ca, allocDelta, allocThresholdPct))
			} else {
				mark += "  (alloc inexact, not gated)"
			}
		}
		fmt.Printf("  %-10s %12.1f %12.1f %+7.1f%% %11.2f %11.2f %+7.1f%%%s\n",
			d.ID, b, c, wallDelta, ba, ca, allocDelta, mark)
	}
	if baseWallTotal > 0 {
		delta := (curWallTotal - baseWallTotal) / baseWallTotal * 100
		mark := ""
		if delta > thresholdPct {
			if baseWallTotal >= compareMinWallMS {
				regressed = true
				mark = "  WALL REGRESSION"
				offenders = append(offenders, fmt.Sprintf(
					"total: min wall %.1f ms -> %.1f ms (%+.1f%%, threshold %+.0f%%)",
					baseWallTotal, curWallTotal, delta, thresholdPct))
			} else {
				mark = "  (under min wall, not gated)"
			}
		}
		fmt.Printf("  %-10s %12.1f %12.1f %+7.1f%%%s\n",
			"total", baseWallTotal, curWallTotal, delta, mark)
	}
	fmt.Println()
	// Name the offenders on stderr: CI logs truncate tables, and "exit 1"
	// with no culprit sends people diffing the whole table by hand.
	if len(offenders) > 0 {
		fmt.Fprintf(os.Stderr, "ffbench: regression gate failed (%d offender(s)):\n", len(offenders))
		for _, o := range offenders {
			fmt.Fprintf(os.Stderr, "  %s\n", o)
		}
	}
	return regressed, nil
}

func dash(ok bool, v float64) string {
	if !ok {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}
