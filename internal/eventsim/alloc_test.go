package eventsim

import (
	"testing"
	"time"
)

// TestScheduleSteadyStateZeroAlloc pins the hot-path guarantee the Engine's
// free list exists for: once the heap backing array has grown and fired
// events populate the recycle list (Engine.alloc / Engine.release), a
// ScheduleRank+Step cycle allocates nothing. A regression here usually means an
// Event escaped recycling or the heap went back to interface-based storage.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	eng := New(1)
	o := NewRankOwner(1)
	fn := func() {}
	// Warm-up: grow the heap and seed the free list.
	for i := 0; i < 128; i++ {
		eng.AfterRank(time.Duration(i)*time.Microsecond, o.Next(), fn)
	}
	for eng.Step() {
	}
	allocs := testing.AllocsPerRun(1000, func() {
		eng.AfterRank(time.Microsecond, o.Next(), fn)
		eng.Step()
	})
	if allocs != 0 {
		t.Fatalf("steady-state ScheduleRank+Step allocates %.2f objects/op, want 0", allocs)
	}
}

// TestCancelledEventsNotRecycled documents why the free list only takes
// cleanly fired events: a caller may hold the handle of a cancelled event
// and must keep observing that event, not a recycled stranger.
func TestCancelledEventsNotRecycled(t *testing.T) {
	eng := New(1)
	o := NewRankOwner(1)
	ev := eng.AfterRank(time.Millisecond, o.Next(), func() {})
	eng.Cancel(ev)
	ev2 := eng.AfterRank(time.Millisecond, o.Next(), func() {})
	if ev == ev2 {
		t.Fatal("cancelled event was recycled; stale handles would alias new events")
	}
	for eng.Step() {
	}
	if !ev.Cancelled() || ev2.Cancelled() {
		t.Fatalf("handle aliasing: ev.Cancelled=%v ev2.Cancelled=%v", ev.Cancelled(), ev2.Cancelled())
	}
}

// TestDroppedEventsRecycled is the other half of the handle contract: Drop
// gives the handle up, so the engine takes the Event back — straight away
// from the near tier, at the next sweep from the far tier, and through the
// dispatch loop when an event drops itself — and a dropped event never
// fires.
func TestDroppedEventsRecycled(t *testing.T) {
	eng := New(1)
	o := NewRankOwner(1)
	fired := 0
	count := func() { fired++ }
	// Park the near/far split so that 1 µs is near and 1 s is far.
	eng.AfterRank(time.Microsecond, o.Next(), count)
	eng.Step()

	near := eng.AfterRank(time.Microsecond, o.Next(), count)
	eng.Drop(near)
	if again := eng.AfterRank(time.Microsecond, o.Next(), count); again != near {
		t.Fatal("a near-tier event was not recycled by Drop")
	}

	far := eng.AfterRank(time.Second, o.Next(), count)
	eng.Drop(far)
	eng.Drop(nil)
	if eng.Pending() != 1 {
		t.Fatalf("Pending() = %d after dropping the far event, want 1", eng.Pending())
	}
	var self *Event
	self = eng.AfterRank(2*time.Second, o.Next(), func() { count(); eng.Drop(self) })
	for eng.Step() {
	}
	if fired != 3 {
		t.Fatalf("%d events fired, want 3 (the dropped ones must not)", fired)
	}
	free := make(map[*Event]bool)
	for _, ev := range eng.free {
		if free[ev] {
			t.Fatal("an event is on the free list twice")
		}
		if ev.dead || ev.forgot || ev.next != nil {
			t.Fatalf("recycled event not clean: %+v", ev)
		}
		free[ev] = true
	}
	if !free[far] || !free[self] {
		t.Fatalf("far-tier drop recycled: %v, self-drop recycled: %v", free[far], free[self])
	}
}

// TestArmDropSteadyStateZeroAlloc is the retransmission-timer pattern: every
// iteration arms a far-tier timer and drops the previous one, while the
// clock advances in small steps. Once the far buffer and the free list are
// warm that allocates nothing; with Cancel every iteration is one Event of
// garbage.
func TestArmDropSteadyStateZeroAlloc(t *testing.T) {
	eng := New(1)
	o := NewRankOwner(1)
	fn := func() {}
	var timer *Event
	cycle := func() {
		eng.Drop(timer)
		timer = eng.AfterRank(100*time.Millisecond, o.Next(), fn)
		eng.AfterRank(time.Microsecond, o.Next(), fn)
		eng.Step()
	}
	for i := 0; i < 1024; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(4096, cycle); allocs != 0 {
		t.Fatalf("arm+drop of a far-tier timer allocates %.2f objects/op, want 0", allocs)
	}
}
