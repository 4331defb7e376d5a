package eventsim

import (
	"runtime"
	"testing"
	"time"
)

func TestRankOwnerPacking(t *testing.T) {
	o := NewRankOwner(7)
	r0 := o.Next()
	r1 := o.Next()
	if r0 != 7<<32 || r1 != 7<<32|1 {
		t.Fatalf("ranks = %x, %x; want %x, %x", r0, r1, uint64(7)<<32, uint64(7)<<32|1)
	}
	// Lower keys beat higher keys at equal sequence numbers.
	a := NewRankOwner(1)
	b := NewRankOwner(2)
	if a.Next() >= b.Next() {
		t.Fatal("rank of key 1 should sort before rank of key 2")
	}
}

func TestRankedEngineOrdersBySuppliedRank(t *testing.T) {
	e := New(1)
	e.RequireRank()
	var got []int
	// Schedule in reverse rank order at the same instant.
	e.ScheduleRank(time.Millisecond, 3, func() { got = append(got, 3) })
	e.ScheduleRank(time.Millisecond, 1, func() { got = append(got, 1) })
	e.ScheduleRank(time.Millisecond, 2, func() { got = append(got, 2) })
	e.Run(time.Millisecond)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", got)
	}
}

func TestRankedEngineRejectsPlainSchedule(t *testing.T) {
	e := New(1)
	e.RequireRank()
	defer func() {
		if recover() == nil {
			t.Fatal("plain Schedule on a ranked engine should panic")
		}
	}()
	e.Schedule(time.Millisecond, func() {})
}

func TestPeekAt(t *testing.T) {
	e := New(1)
	if _, ok := e.PeekAt(); ok {
		t.Fatal("PeekAt on an empty engine should report !ok")
	}
	e.Schedule(5*time.Millisecond, func() {})
	// Far-future event (beyond the near ring) must still be peekable.
	e.Schedule(30*time.Second, func() {})
	at, ok := e.PeekAt()
	if !ok || at != 5*time.Millisecond {
		t.Fatalf("PeekAt = %v,%v; want 5ms,true", at, ok)
	}
	e.Run(10 * time.Millisecond)
	at, ok = e.PeekAt()
	if !ok || at != 30*time.Second {
		t.Fatalf("PeekAt after run = %v,%v; want 30s,true", at, ok)
	}
}

func TestNewStreamDeterministicAndKeyed(t *testing.T) {
	a1 := NewStream(42, 7).Uint64()
	a2 := NewStream(42, 7).Uint64()
	b := NewStream(42, 8).Uint64()
	c := NewStream(43, 7).Uint64()
	if a1 != a2 {
		t.Fatal("same (seed,key) must reproduce the same stream")
	}
	if a1 == b || a1 == c {
		t.Fatal("different key or seed should give a different stream")
	}
}

// TestShardGroupWindowedRun checks the conservative window protocol on a
// two-shard ping-pong: each shard forwards a token to the other with a
// propagation delay equal to the lookahead, hand-offs travel through an
// Exchange buffer, and the merged execution must alternate deterministically.
func TestShardGroupWindowedRun(t *testing.T) {
	const hop = 2 * time.Millisecond
	coord := New(1)
	s0, s1 := New(2), New(3)
	s0.RequireRank()
	s1.RequireRank()

	type msg struct {
		at   time.Duration
		rank uint64
		dst  int
	}
	var pending [2][]msg // producer-local; drained at barriers
	shards := []*Engine{s0, s1}

	var order []int
	owners := []RankOwner{NewRankOwner(1), NewRankOwner(2)}
	var bounce func(shard int)
	bounce = func(shard int) {
		order = append(order, shard)
		if len(order) >= 6 {
			return
		}
		dst := 1 - shard
		pending[shard] = append(pending[shard], msg{
			at:   shards[shard].Now() + hop,
			rank: owners[shard].Next(),
			dst:  dst,
		})
	}

	g := &ShardGroup{
		Coord:     coord,
		Shards:    shards,
		Lookahead: hop,
	}
	g.Exchange = func() {
		for src := range pending {
			for _, m := range pending[src] {
				m := m
				shards[m.dst].ScheduleRank(m.at, m.rank, func() { bounce(m.dst) })
			}
			pending[src] = pending[src][:0]
		}
	}

	var coordTicks int
	coord.Schedule(time.Millisecond, func() { coordTicks++ })
	s0.ScheduleRank(0, owners[0].Next(), func() { bounce(0) })
	g.Run(20 * time.Millisecond)

	want := []int{0, 1, 0, 1, 0, 1}
	if len(order) != len(want) {
		t.Fatalf("bounce order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("bounce order = %v, want %v", order, want)
		}
	}
	if coordTicks != 1 {
		t.Fatalf("coordinator ticks = %d, want 1", coordTicks)
	}
	if g.Windows == 0 {
		t.Fatal("expected at least one barrier window")
	}
	for _, e := range append([]*Engine{coord}, shards...) {
		if e.Now() != 20*time.Millisecond {
			t.Fatalf("engine clock = %v, want horizon", e.Now())
		}
	}
}

// TestShardGroupIdleGap checks that windows skip over idle stretches much
// wider than the lookahead instead of spinning through empty windows.
func TestShardGroupIdleGap(t *testing.T) {
	coord := New(1)
	s0 := New(2)
	s0.RequireRank()
	o := NewRankOwner(1)
	fired := 0
	s0.ScheduleRank(time.Millisecond, o.Next(), func() { fired++ })
	s0.ScheduleRank(10*time.Second, o.Next(), func() { fired++ })
	g := &ShardGroup{Coord: coord, Shards: []*Engine{s0}, Lookahead: time.Millisecond}
	g.Run(11 * time.Second)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	// Both events plus the drain: far fewer windows than gap/lookahead.
	if g.Windows > 10 {
		t.Fatalf("windows = %d; idle gap should not be stepped through", g.Windows)
	}
}

// unevenGroup builds a group of shards whose loads differ by an order of
// magnitude: shard i fires a self-rescheduling event every (i+1)·100 µs.
// fired[i] is written by whichever worker runs shard i, unsynchronised on
// purpose — a shard claimed twice in a window would race here.
func unevenGroup(shards, workers int) (g *ShardGroup, fired []int, period func(i int) time.Duration) {
	period = func(i int) time.Duration { return time.Duration(i+1) * 100 * time.Microsecond }
	g = &ShardGroup{Coord: New(1), Workers: workers, Lookahead: time.Millisecond}
	fired = make([]int, shards)
	for i := 0; i < shards; i++ {
		e := New(int64(i) + 2)
		e.RequireRank()
		o := NewRankOwner(uint64(i) + 1)
		var tick func()
		tick = func() {
			fired[i]++
			e.AfterRank(period(i), o.Next(), tick)
		}
		e.ScheduleRank(period(i), o.Next(), tick)
		g.Shards = append(g.Shards, e)
	}
	return g, fired, period
}

// TestShardGroupFewerWorkersThanShards pins the claim protocol: with any
// worker count, at every barrier every shard has been run through the same
// window end exactly once (its clock and its event count say so), and all
// clocks agree at the horizon.
func TestShardGroupFewerWorkersThanShards(t *testing.T) {
	const shards, horizon = 5, 50 * time.Millisecond
	for _, workers := range []int{0, 1, 2, 3, shards, shards + 3} {
		g, fired, period := unevenGroup(shards, workers)
		barriers := 0
		g.Exchange = func() {
			barriers++
			now := g.Shards[0].Now()
			for i, e := range g.Shards {
				if e.Now() != now {
					t.Fatalf("workers=%d: shard %d at %v, shard 0 at %v after the same window", workers, i, e.Now(), now)
				}
				if want := int(now / period(i)); fired[i] != want {
					t.Fatalf("workers=%d: shard %d fired %d events by %v, want %d", workers, i, fired[i], now, want)
				}
			}
		}
		g.Run(horizon)
		if barriers == 0 || g.Windows == 0 {
			t.Fatalf("workers=%d: no barrier ran", workers)
		}
		for i, e := range append([]*Engine{g.Coord}, g.Shards...) {
			if e.Now() != horizon {
				t.Fatalf("workers=%d: engine %d clock = %v, want the horizon", workers, i, e.Now())
			}
		}
	}
}

// TestShardGroupOneWorkerRunsInline pins that a single worker is the
// caller: no goroutine exists during or after Run that did not before.
func TestShardGroupOneWorkerRunsInline(t *testing.T) {
	g, _, _ := unevenGroup(3, 1)
	before := runtime.NumGoroutine()
	during := 0
	g.Coord.Schedule(5*time.Millisecond, func() { during = runtime.NumGoroutine() })
	g.Run(10 * time.Millisecond)
	if during != before || runtime.NumGoroutine() != before {
		t.Fatalf("goroutines: %d before Run, %d during, %d after; one worker must start none",
			before, during, runtime.NumGoroutine())
	}
}
