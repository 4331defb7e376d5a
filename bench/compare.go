package main

import (
	"fmt"
	"strings"
)

// compareFiles prints one row per (end-to-end metric, workload) with both
// medians, their ratio and its base, the bound and the verdict; then the
// workloads whose simulated output or exact counters differ. It returns 1
// when any row is worse or any workload fails more operations than before.
func compareFiles(oldPath, newPath string) int {
	old, err := readJSON[result](oldPath)
	if err != nil {
		fatal(err)
	}
	cur, err := readJSON[result](newPath)
	if err != nil {
		fatal(err)
	}
	report, bad := compareResults(old, cur)
	fmt.Print(report)
	if bad {
		return 1
	}
	return 0
}

func failRatio(wp *workloadPasses) float64 {
	var failed, attempted int
	for _, r := range wp.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func compareResults(old, cur *result) (string, bool) {
	var b, exact strings.Builder
	bad := false
	fmt.Fprintf(&b, "%-14s %-18s %12s %12s  %-22s %6s  %s\n", "workload", "metric", "old", "new", "new/old (base: old)", "bound", "verdict")
	for _, w := range workloadNames {
		o, c := old.Workloads[w], cur.Workloads[w]
		if o == nil || c == nil {
			fmt.Fprintf(&b, "%-14s missing from one of the results\n", w)
			bad = true
			continue
		}
		for _, d := range endToEnd {
			ov, cv := o.values(d.name), c.values(d.name)
			v := verdict(ov, cv, d.better, d.bound)
			if v == "worse" || v == "missing" {
				bad = true
			}
			ratio := 0.0
			if m := median(ov); m != 0 {
				ratio = median(cv) / m
			}
			fmt.Fprintf(&b, "%-14s %-18s %12.6g %12.6g  %-22s %5.0f%%  %s\n", w, d.name, median(ov), median(cv),
				fmt.Sprintf("%.4f (%s better)", ratio, d.better), 100*d.bound, v)
		}
		if fo, fc := failRatio(o), failRatio(c); fc > fo {
			fmt.Fprintf(&b, "%-14s fail ratio rose from %.4g to %.4g\n", w, fo, fc)
			bad = true
		}
		if len(o.Runs) > 0 && len(c.Runs) > 0 {
			or, cr := o.Runs[0], c.Runs[0]
			if or.Digest != cr.Digest {
				fmt.Fprintf(&exact, "%-14s output_digest %s -> %s (seeds %d, %d)\n", w, or.Digest, cr.Digest, or.Seed, cr.Seed)
			}
			for _, name := range sortedKeys(or.Counts) {
				if ov, cv := or.Counts[name], cr.Counts[name]; ov != cv {
					fmt.Fprintf(&exact, "%-14s %-34s %.17g -> %.17g\n", w, name, ov, cv)
				}
			}
		}
	}
	if exact.Len() == 0 {
		b.WriteString("\nsimulated statistics identical: every output digest and exact counter matches\n")
	} else {
		b.WriteString("\nsimulated behaviour moved (exact counters and digests that differ):\n" + exact.String())
	}
	return b.String(), bad
}
