package metrics

import (
	"strings"
	"testing"
	"time"

	"fastflex/internal/eventsim"
)

func seq(vals ...float64) *Series {
	s := &Series{Name: "t"}
	for i, v := range vals {
		s.Add(time.Duration(i)*time.Second, v)
	}
	return s
}

func TestSeriesStats(t *testing.T) {
	s := seq(1, 2, 3, 4)
	if s.Mean() != 2.5 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 4 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
	empty := &Series{}
	if empty.Mean() != 0 {
		t.Fatal("empty mean should be 0")
	}
}

func TestMeanBetween(t *testing.T) {
	s := seq(10, 20, 30, 40)
	got := s.MeanBetween(time.Second, 3*time.Second)
	if got != 25 {
		t.Fatalf("mean [1s,3s) = %v, want 25", got)
	}
	if s.MeanBetween(10*time.Second, 20*time.Second) != 0 {
		t.Fatal("empty window should be 0")
	}
}

func TestPercentile(t *testing.T) {
	s := seq(5, 1, 3, 2, 4)
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("p50 = %v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("p100 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
}

func TestFractionBelow(t *testing.T) {
	s := seq(0.1, 0.5, 0.9, 0.95)
	if got := s.FractionBelow(0.8); got != 0.5 {
		t.Fatalf("fraction below 0.8 = %v", got)
	}
}

func TestNormalize(t *testing.T) {
	s := seq(50, 100)
	n := s.Normalize(100)
	if n.V[0] != 0.5 || n.V[1] != 1.0 {
		t.Fatalf("normalized = %v", n.V)
	}
	z := s.Normalize(0)
	if z.V[0] != 0 {
		t.Fatal("zero base should produce zeros")
	}
}

func TestSampler(t *testing.T) {
	eng := eventsim.New(1)
	x := 0.0
	o := eventsim.NewRankOwner(1)
	s := NewSampler(eng, &o, "x", 100*time.Millisecond, func() float64 { x++; return x })
	eng.Run(time.Second)
	if s.S.Len() != 10 {
		t.Fatalf("samples = %d, want 10", s.S.Len())
	}
	if s.S.V[0] != 1 || s.S.V[9] != 10 {
		t.Fatalf("sample values wrong: %v", s.S.V)
	}
	s.Stop()
	eng.Run(2 * time.Second)
	if s.S.Len() != 10 {
		t.Fatal("sampler kept running after Stop")
	}
}

func TestRateSampler(t *testing.T) {
	eng := eventsim.New(1)
	var counter uint64
	load, o := eventsim.NewRankOwner(1), eventsim.NewRankOwner(2)
	eventsim.NewTicker(eng, &load, 10*time.Millisecond, func() { counter += 100 })
	rs := RateSampler(eng, &o, "rate", 100*time.Millisecond, func() uint64 { return counter })
	eng.Run(time.Second)
	if rs.S.Len() != 10 {
		t.Fatalf("samples = %d", rs.S.Len())
	}
	// 100 units per 10ms = 10000 units/s.
	for _, v := range rs.S.V {
		if v < 9000 || v > 11000 {
			t.Fatalf("rate sample %v, want ≈10000", v)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.AddRow("alpha", "1")
	tb.AddRow("b", "22222")
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22222") {
		t.Fatalf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d, want header+rule+2 rows", len(lines))
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "name,value\n") || !strings.Contains(csv, "alpha,1\n") {
		t.Fatalf("bad CSV:\n%s", csv)
	}
}

func TestAsciiPlot(t *testing.T) {
	s := seq(0, 1, 2, 3, 4, 5)
	out := AsciiPlot(s, 20, 5)
	if !strings.Contains(out, "*") {
		t.Fatalf("plot has no marks:\n%s", out)
	}
	if AsciiPlot(&Series{}, 10, 5) != "(empty series)\n" {
		t.Fatal("empty plot wrong")
	}
}
