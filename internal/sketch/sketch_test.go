package sketch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCountMinNeverUndercounts(t *testing.T) {
	cm := NewCountMin(4, 64)
	truth := make(map[uint64]uint64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		h := uint64(rng.Intn(200)) // force collisions
		truth[h]++
		cm.Add(h, 1)
	}
	for h, want := range truth {
		if got := cm.Estimate(h); got < want {
			t.Fatalf("undercount for %d: got %d, want ≥ %d", h, got, want)
		}
	}
}

func TestCountMinExactWhenSparse(t *testing.T) {
	cm := NewCountMin(4, 4096)
	for i := uint64(0); i < 10; i++ {
		cm.Add(i*7919, i+1)
	}
	for i := uint64(0); i < 10; i++ {
		if got := cm.Estimate(i * 7919); got != i+1 {
			t.Fatalf("sparse estimate for item %d = %d, want %d", i, got, i+1)
		}
	}
	if cm.Estimate(999999999) != 0 {
		t.Fatal("unseen item should estimate 0 in a sparse sketch")
	}
}

func TestCountMinReset(t *testing.T) {
	cm := NewCountMin(2, 16)
	cm.Add(42, 100)
	cm.Reset()
	if cm.Estimate(42) != 0 {
		t.Fatal("reset did not clear counters")
	}
}

func TestCountMinAddReturnsEstimate(t *testing.T) {
	cm := NewCountMin(3, 1024)
	if got := cm.Add(7, 5); got != 5 {
		t.Fatalf("Add returned %d, want 5", got)
	}
	if got := cm.Add(7, 3); got != 8 {
		t.Fatalf("Add returned %d, want 8", got)
	}
}

func TestCountMinPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero width")
		}
	}()
	NewCountMin(2, 0)
}

// Property: count-min estimate ≥ true count for any insertion sequence.
func TestQuickCountMinLowerBound(t *testing.T) {
	f := func(items []uint8) bool {
		cm := NewCountMin(3, 32)
		truth := make(map[uint64]uint64)
		for _, it := range items {
			truth[uint64(it)]++
			cm.Add(uint64(it), 1)
		}
		for h, want := range truth {
			if cm.Estimate(h) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashPipeTracksHeavyHitters(t *testing.T) {
	hp := NewHashPipe(4, 64)
	rng := rand.New(rand.NewSource(2))
	// 5 elephants at 2000 packets each, 500 mice at ~20 each.
	for i := 0; i < 2000; i++ {
		for e := uint64(1); e <= 5; e++ {
			hp.Add(mix(e))
		}
		for m := 0; m < 5; m++ {
			hp.Add(mix(uint64(100 + rng.Intn(500))))
		}
	}
	lightest := uint64(1 << 63)
	for e := uint64(1); e <= 5; e++ {
		c := hp.Estimate(mix(e))
		if c < 1000 {
			t.Fatalf("elephant %d tracked count %d suspiciously low", e, c)
		}
		lightest = min(lightest, c)
	}
	for m := uint64(100); m < 600; m++ {
		if c := hp.Estimate(mix(m)); c >= lightest {
			t.Fatalf("mouse %d tracked at %d, not below every elephant (%d)", m, c, lightest)
		}
	}
}

func TestHashPipeEstimateMatchesSingleFlow(t *testing.T) {
	hp := NewHashPipe(2, 16)
	for i := 0; i < 100; i++ {
		hp.Add(12345)
	}
	if got := hp.Estimate(12345); got != 100 {
		t.Fatalf("single-flow estimate = %d, want 100", got)
	}
	if hp.Estimate(54321) != 0 {
		t.Fatal("unseen flow has nonzero estimate")
	}
}

func TestHashPipeReset(t *testing.T) {
	hp := NewHashPipe(2, 8)
	hp.Add(1)
	hp.Reset()
	if hp.Estimate(1) != 0 {
		t.Fatal("reset did not clear pipe")
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.2)
	for i := 0; i < 100; i++ {
		e.Observe(10)
	}
	if v := e.Value(); v < 9.999 || v > 10.001 {
		t.Fatalf("EWMA of constant 10 = %v", v)
	}
}

func TestEWMAFirstSamplePrimes(t *testing.T) {
	e := NewEWMA(0.01)
	if got := e.Observe(100); got != 100 {
		t.Fatalf("first sample = %v, want 100 (no bias toward zero)", got)
	}
}

func TestEWMATracksStep(t *testing.T) {
	e := NewEWMA(0.5)
	e.Observe(0)
	for i := 0; i < 20; i++ {
		e.Observe(100)
	}
	if e.Value() < 99 {
		t.Fatalf("EWMA did not converge after step: %v", e.Value())
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("alpha %v did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}
