package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"fastflex/internal/eventsim"
)

// Series is a named time series of (virtual time, value) samples.
type Series struct {
	Name string
	T    []time.Duration
	V    []float64
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.T = append(s.T, t)
	s.V = append(s.V, v)
}

// Len returns the sample count.
func (s *Series) Len() int { return len(s.V) }

// Mean returns the arithmetic mean (0 for an empty series).
func (s *Series) Mean() float64 {
	if len(s.V) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.V {
		sum += v
	}
	return sum / float64(len(s.V))
}

// Min returns the smallest sample (+Inf when empty).
func (s *Series) Min() float64 {
	min := math.Inf(1)
	for _, v := range s.V {
		if v < min {
			min = v
		}
	}
	return min
}

// Max returns the largest sample (-Inf when empty).
func (s *Series) Max() float64 {
	max := math.Inf(-1)
	for _, v := range s.V {
		if v > max {
			max = v
		}
	}
	return max
}

// MeanBetween averages samples with from ≤ t < to.
func (s *Series) MeanBetween(from, to time.Duration) float64 {
	var sum float64
	n := 0
	for i, t := range s.T {
		if t >= from && t < to {
			sum += s.V[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Percentile returns the p-th percentile (p in [0,100]) by nearest-rank.
func (s *Series) Percentile(p float64) float64 {
	if len(s.V) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.V...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// FractionBelow returns the fraction of samples strictly below the
// threshold.
func (s *Series) FractionBelow(th float64) float64 {
	if len(s.V) == 0 {
		return 0
	}
	n := 0
	for _, v := range s.V {
		if v < th {
			n++
		}
	}
	return float64(n) / float64(len(s.V))
}

// Sampler periodically records fn() into a Series on the simulation clock.
type Sampler struct {
	S      *Series
	ticker *eventsim.Ticker
}

// Stop halts sampling.
func (s *Sampler) Stop() { s.ticker.Stop() }

// RateSampler samples the derivative of a monotonically increasing counter
// (e.g. bytes received), reporting per-second rates.
func RateSampler(eng *eventsim.Engine, own *eventsim.RankOwner, name string, period time.Duration, counter func() uint64) *Sampler {
	last := counter()
	s := &Sampler{S: &Series{Name: name}}
	s.ticker = eventsim.NewTicker(eng, own, period, func() {
		cur := counter()
		rate := float64(cur-last) / period.Seconds()
		last = cur
		s.S.Add(eng.Now(), rate)
	})
	return s
}

// Normalize divides every sample by base, clamping at lo/hi if hi > lo.
func (s *Series) Normalize(base float64) *Series {
	out := &Series{Name: s.Name + " (normalized)"}
	for i := range s.V {
		v := 0.0
		if base > 0 {
			v = s.V[i] / base
		}
		out.Add(s.T[i], v)
	}
	return out
}

// Table renders rows of labeled values as an aligned ASCII table.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// AsciiPlot renders a series as a small terminal plot (Figure-3 style),
// with one column per sample bucket.
func AsciiPlot(s *Series, width, height int) string {
	if len(s.V) == 0 || width <= 0 || height <= 0 {
		return "(empty series)\n"
	}
	max := s.Max()
	if max <= 0 {
		max = 1
	}
	cols := make([]float64, width)
	counts := make([]int, width)
	tMax := s.T[len(s.T)-1]
	if tMax == 0 {
		tMax = 1
	}
	for i := range s.V {
		c := int(int64(s.T[i]) * int64(width-1) / int64(tMax))
		cols[c] += s.V[i]
		counts[c]++
	}
	for i := range cols {
		if counts[i] > 0 {
			cols[i] /= float64(counts[i])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (max %.3g)\n", s.Name, max)
	for r := height; r >= 1; r-- {
		th := max * float64(r) / float64(height)
		b.WriteString("|")
		for c := 0; c < width; c++ {
			if counts[c] > 0 && cols[c] >= th-max/float64(2*height) {
				b.WriteString("*")
			} else {
				b.WriteString(" ")
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("+")
	b.WriteString(strings.Repeat("-", width))
	fmt.Fprintf(&b, " %v\n", tMax)
	return b.String()
}
