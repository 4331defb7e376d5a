package eventsim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := New(1)
	o := NewRankOwner(1)
	var got []int
	e.ScheduleRank(3*time.Millisecond, o.Next(), func() { got = append(got, 3) })
	e.ScheduleRank(1*time.Millisecond, o.Next(), func() { got = append(got, 1) })
	e.ScheduleRank(2*time.Millisecond, o.Next(), func() { got = append(got, 2) })
	e.Run(time.Second)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New(1)
	o := NewRankOwner(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleRank(time.Millisecond, o.Next(), func() { got = append(got, i) })
	}
	e.Run(time.Second)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

// TestScheduleRankRejectsZeroRank pins that only RankOwner.Next mints a
// rank: the zero Rank, the one value a caller can write without an owner,
// panics instead of silently tying with a minted rank.
func TestScheduleRankRejectsZeroRank(t *testing.T) {
	o := NewRankOwner(0)
	if o.Next() == (Rank{}) {
		t.Fatal("key 0 minted the zero Rank")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleRank with the zero Rank did not panic")
		}
	}()
	New(1).ScheduleRank(time.Millisecond, Rank{}, func() {})
}

// TestAfterRanksByEngineOwner pins After, the bare-engine entry point: its
// events are ranked by the engine's own owner, so same-instant ones fire in
// scheduling order, after any simulation owner's, and a Reset engine
// replays them identically.
func TestAfterRanksByEngineOwner(t *testing.T) {
	e := New(1)
	var got []int
	run := func() {
		got = got[:0]
		sim := NewRankOwner(1<<31 + 5)
		for i := 0; i < 3; i++ {
			i := i
			e.After(time.Millisecond, func() { got = append(got, i) })
		}
		e.ScheduleRank(time.Millisecond, sim.Next(), func() { got = append(got, -1) })
		e.Run(time.Second)
		if fmt.Sprint(got) != "[-1 0 1 2]" {
			t.Fatalf("order = %v, want [-1 0 1 2]", got)
		}
	}
	run()
	e.Reset(1)
	run()
}

func TestAfterAdvancesClock(t *testing.T) {
	e := New(1)
	o := NewRankOwner(1)
	var at time.Duration
	e.AfterRank(5*time.Millisecond, o.Next(), func() { at = e.Now() })
	e.Run(time.Second)
	if at != 5*time.Millisecond {
		t.Fatalf("fired at %v, want 5ms", at)
	}
	if e.Now() != time.Second {
		t.Fatalf("clock = %v, want horizon 1s", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	o := NewRankOwner(1)
	var hits int
	e.AfterRank(time.Millisecond, o.Next(), func() {
		hits++
		e.AfterRank(time.Millisecond, o.Next(), func() { hits++ })
	})
	e.Run(time.Second)
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

func TestCancel(t *testing.T) {
	e := New(1)
	o := NewRankOwner(1)
	fired := false
	ev := e.AfterRank(time.Millisecond, o.Next(), func() { fired = true })
	e.Cancel(ev)
	e.Run(time.Second)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	// Double cancel is a no-op.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelOneOfMany(t *testing.T) {
	e := New(1)
	o := NewRankOwner(1)
	var got []int
	var evs []*Event
	for i := 0; i < 5; i++ {
		i := i
		evs = append(evs, e.ScheduleRank(time.Duration(i+1)*time.Millisecond, o.Next(), func() { got = append(got, i) }))
	}
	e.Cancel(evs[2])
	e.Run(time.Second)
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New(1)
	o := NewRankOwner(1)
	e.AfterRank(time.Millisecond, o.Next(), func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleRank(0, o.Next(), func() {})
	})
	e.Run(time.Second)
}

func TestRunHorizonLeavesFutureEvents(t *testing.T) {
	e := New(1)
	o := NewRankOwner(1)
	fired := false
	e.ScheduleRank(2*time.Second, o.Next(), func() { fired = true })
	e.Run(time.Second)
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run(3 * time.Second)
	if !fired {
		t.Fatal("event did not fire on second Run")
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	o := NewRankOwner(1)
	var hits int
	e.AfterRank(time.Millisecond, o.Next(), func() { hits++; e.Stop() })
	e.AfterRank(2*time.Millisecond, o.Next(), func() { hits++ })
	e.Run(time.Second)
	if hits != 1 {
		t.Fatalf("hits = %d, want 1 (Stop should halt Run)", hits)
	}
}

func TestTicker(t *testing.T) {
	e := New(1)
	o := NewRankOwner(1)
	var times []time.Duration
	tk := NewTicker(e, &o, 10*time.Millisecond, func() { times = append(times, e.Now()) })
	e.AfterRank(35*time.Millisecond, o.Next(), tk.Stop)
	e.Run(time.Second)
	if len(times) != 3 {
		t.Fatalf("ticks = %d (%v), want 3", len(times), times)
	}
	for i, at := range times {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if at != want {
			t.Fatalf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	e := New(1)
	o := NewRankOwner(1)
	var tk *Ticker
	hits := 0
	tk = NewTicker(e, &o, time.Millisecond, func() {
		hits++
		if hits == 2 {
			tk.Stop()
		}
	})
	e.Run(time.Second)
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-period ticker did not panic")
		}
	}()
	o := NewRankOwner(1)
	NewTicker(New(1), &o, 0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		e := New(seed)
		o := NewRankOwner(1)
		var draws []int64
		for i := 0; i < 20; i++ {
			d := time.Duration(e.RNG().Intn(1000)) * time.Microsecond
			e.AfterRank(d, o.Next(), func() { draws = append(draws, e.RNG().Int63()) })
		}
		e.Run(time.Second)
		return draws
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different executions")
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestFiredCount(t *testing.T) {
	e := New(1)
	o := NewRankOwner(1)
	for i := 0; i < 7; i++ {
		e.ScheduleRank(time.Duration(i)*time.Millisecond, o.Next(), func() {})
	}
	if n := e.Run(time.Second); n != 7 {
		t.Fatalf("Run returned %d, want 7", n)
	}
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

// Property: for any set of non-negative delays, events fire in sorted order.
func TestQuickEventOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(1)
		o := NewRankOwner(1)
		var fired []time.Duration
		for _, d := range delays {
			e.ScheduleRank(time.Duration(d)*time.Microsecond, o.Next(), func() { fired = append(fired, e.Now()) })
		}
		e.Run(time.Hour)
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
