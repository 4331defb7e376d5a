package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-quantile (p in [0,1]) of v by linear
// interpolation between the two closest ranks, so p=0.5 is the usual
// median. It returns 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := int(math.Ceil(h))
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// "exclusive" method), because that is how the acceptance spread of an
// end-to-end metric is defined. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run noise figure a bound is judged against.
func spread(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// worseBy is how much worse cur is than base as a share of base, signed so
// that a positive value is a regression whichever way the metric points.
func worseBy(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}

// verdict classifies one (metric, workload) comparison under the rule the
// choosing-metrics guide fixes: worse when the median moved past the
// bound; unresolved when the spread of either side is wider than the bound,
// unless every new run beats every old run; ok otherwise.
func verdict(old, cur []float64, better string, bound float64) string {
	if len(old) == 0 || len(cur) == 0 {
		return "missing"
	}
	if worseBy(median(old), median(cur), better) > bound {
		return "worse"
	}
	if len(old) > 1 && len(cur) > 1 && (spread(old) > bound || spread(cur) > bound) {
		so, sc := sorted(old), sorted(cur)
		allBetter := sc[len(sc)-1] < so[0]
		if better == "higher" {
			allBetter = sc[0] > so[len(so)-1]
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "ok"
}
