package eventsim

import (
	"sync"
	"sync/atomic"
	"time"
)

// Rank is an event's tie-break against the other events due at the same
// instant on its engine: lower fires first. Only RankOwner.Next mints one,
// and every minted rank is non-zero, so the zero Rank is not a rank and
// ScheduleRank panics on it.
type Rank struct{ v uint64 }

// RankOwner mints the ranks of one simulation entity (a switch, a link, a
// traffic source, a coordinator site). A rank packs the entity's stable key
// above a per-entity sequence number, so same-instant events from two
// entities fire in key order and those from one entity in the order it
// scheduled them — never in an order that depends on which engine an
// entity runs in, or on the order unrelated entities made their calls.
// Keys must be unique per network and below ownKey; the per-entity counter
// wraps at 2^32, far beyond any run.
type RankOwner struct {
	key uint64
	n   uint64
}

// ownKey is the key of each engine's own owner (Engine.After), above every
// key a simulation mints.
const ownKey = 1<<32 - 2

// NewRankOwner creates a rank source for the entity with the given key.
// The key is stored one up, so no minted rank is the zero Rank.
func NewRankOwner(key uint64) RankOwner {
	return RankOwner{key: (key + 1) << 32}
}

// Next returns the entity's next rank.
func (o *RankOwner) Next() Rank {
	r := Rank{o.key | (o.n & 0xffffffff)}
	o.n++
	return r
}

// Rewind restarts the owner's sequence, as for a freshly created owner
// with the same key. Only safe once no event it ranked is pending (after
// an engine Reset).
func (o *RankOwner) Rewind() { o.n = 0 }

// ShardGroup runs several shard engines in lockstep conservative windows,
// with a coordinator engine for control-timescale work (tickers, samplers,
// experiment setup) that may touch any shard's state.
//
// Window protocol: the group computes base, the earliest pending event time
// across every engine, and closes the window at
//
//	Tend = min(base + Lookahead, coordinator's next event, horizon)
//
// Lookahead is the minimum propagation delay of any cross-shard link. A
// cross-shard hand-off emitted at t >= base arrives at t + tx + prop with
// tx >= 1ns and prop >= Lookahead, hence strictly after Tend — so every
// shard can execute its local events through Tend without ever receiving a
// surprise from a peer. Workers are not shards: Workers goroutines (the
// caller among them) claim the shards of a window one at a time, the one
// that fired most events in the previous window first, so a topology cut
// finer than the worker count balances itself. At the barrier the caller
// drains the hand-off rings (Exchange), runs the coordinator through Tend,
// and opens the next window. Because base is a minimum over all engines,
// the earliest event always fires, so the loop makes progress even across
// idle gaps wider than the lookahead.
type ShardGroup struct {
	// Coord runs control-timescale events; it executes at barriers while
	// the shards are parked, so its callbacks may touch shard state freely.
	Coord *Engine
	// Shards are the per-partition engines. Within a window each is run by
	// exactly one worker; which one is scheduling noise no result may
	// depend on, so anything a shard touches must belong to the shard.
	Shards []*Engine
	// Workers is how many goroutines run a window, the caller included;
	// values outside [1, len(Shards)] are clamped. With one worker Run
	// starts no goroutine and touches no channel: the caller runs every
	// shard inline.
	Workers int
	// Lookahead is the conservative window width. Zero means unbounded
	// windows (valid only when no cross-shard traffic can exist).
	Lookahead time.Duration
	// Bound, if set, replaces the static base+Lookahead computation with
	// a caller-supplied conservative bound (e.g. one derived from which
	// cross-shard links are actually active). It runs at the barrier, so
	// it may read any shard's state. The returned bound must be > base
	// whenever events are pending (progress) and must guarantee that no
	// cross-engine hand-off emitted during the window lands at or before
	// it (conservativeness); it is still capped by the horizon and the
	// coordinator's next event.
	Bound func(base, horizon time.Duration) time.Duration
	// Exchange is called at every barrier, before the coordinator runs, to
	// move cross-shard hand-offs into their destination engines.
	Exchange func()
	// Windows counts barrier rounds, for perf telemetry.
	Windows uint64

	// order is the claim order of the next window (shard indices, heaviest
	// previous window first); fired and load are each shard's event count
	// at the last barrier and over the last window. next is the claim
	// cursor into order.
	order []int
	fired []uint64
	load  []uint64
	next  atomic.Int64

	helpers []chan time.Duration
	window  sync.WaitGroup
	joined  sync.WaitGroup
}

// Run advances every engine to the horizon (inclusive), alternating
// parallel shard windows with barrier-time coordinator execution.
func (g *ShardGroup) Run(horizon time.Duration) {
	g.start()
	for {
		base, any := g.peekBase()
		if !any || base > horizon {
			break
		}
		tend := horizon
		if g.Bound != nil {
			if b := g.Bound(base, horizon); b < tend {
				tend = b
			}
		} else if g.Lookahead > 0 && base <= horizon-g.Lookahead {
			// base <= horizon - Lookahead also guards the addition
			// against overflow for huge horizons.
			tend = base + g.Lookahead
		}
		if at, ok := g.Coord.PeekAt(); ok && at < tend {
			tend = at
		}
		g.runWindow(tend)
		g.exchange()
		g.Coord.Run(tend)
		// The coordinator may itself emit cross-shard hand-offs (probes,
		// heartbeats); drain them now so the next base computation sees
		// every pending event.
		g.exchange()
		g.Windows++
	}
	// No event anywhere is due at or before the horizon: advance every
	// clock so Now() agrees across engines.
	g.runWindow(horizon)
	g.exchange()
	g.Coord.Run(horizon)
	g.exchange()
	g.stop()
}

func (g *ShardGroup) exchange() {
	if g.Exchange != nil {
		g.Exchange()
	}
}

// peekBase returns the earliest pending event time across all engines.
// It runs at a barrier, so reading shard engines is race-free.
func (g *ShardGroup) peekBase() (time.Duration, bool) {
	var base time.Duration
	any := false
	if at, ok := g.Coord.PeekAt(); ok {
		base, any = at, true
	}
	for _, e := range g.Shards {
		if at, ok := e.PeekAt(); ok && (!any || at < base) {
			base, any = at, true
		}
	}
	return base, any
}

// runWindow executes one window: every shard runs through tend exactly
// once, on whichever worker claims it, and the call returns only after all
// of them reach the barrier.
func (g *ShardGroup) runWindow(tend time.Duration) {
	g.reorder()
	g.next.Store(0)
	if len(g.helpers) == 0 {
		g.claim(tend)
		return
	}
	g.window.Add(len(g.helpers))
	for _, ch := range g.helpers {
		ch <- tend
	}
	g.claim(tend)
	g.window.Wait()
}

// claim runs unclaimed shards through tend until none is left. The atomic
// cursor hands each shard of the window to exactly one worker; together
// with the barrier it orders a shard's successive windows, whichever
// workers run them.
func (g *ShardGroup) claim(tend time.Duration) {
	for {
		i := int(g.next.Add(1)) - 1
		if i >= len(g.order) {
			return
		}
		g.Shards[g.order[i]].Run(tend)
	}
}

// reorder sorts the claim order by events fired in the window just closed,
// heaviest first, so the longest jobs start earliest (the greedy makespan
// rule). Loads change slowly, so the insertion sort is a single pass
// nearly always. The load is a deterministic quantity, though nothing
// observable depends on the order.
func (g *ShardGroup) reorder() {
	for i, e := range g.Shards {
		f := e.Fired()
		g.load[i], g.fired[i] = f-g.fired[i], f
	}
	for i := 1; i < len(g.order); i++ {
		for j := i; j > 0 && g.load[g.order[j]] > g.load[g.order[j-1]]; j-- {
			g.order[j], g.order[j-1] = g.order[j-1], g.order[j]
		}
	}
}

// start sizes the claim state and launches the helper goroutines: one per
// worker beyond the caller, none when a single worker runs the group. A
// worker owns an engine exclusively between claiming it and the barrier;
// the caller owns all engines between the barrier and the next window (the
// channel, the claim cursor and the WaitGroup order the hand-offs).
func (g *ShardGroup) start() {
	if len(g.order) != len(g.Shards) {
		g.order = make([]int, len(g.Shards))
		g.fired = make([]uint64, len(g.Shards))
		g.load = make([]uint64, len(g.Shards))
		for i := range g.order {
			g.order[i] = i
		}
	}
	for i, e := range g.Shards {
		g.fired[i] = e.Fired()
	}
	workers := min(g.Workers, len(g.Shards))
	for len(g.helpers) < workers-1 {
		ch := make(chan time.Duration, 1)
		g.helpers = append(g.helpers, ch)
		g.joined.Add(1)
		go func() {
			defer g.joined.Done()
			for tend := range ch {
				g.claim(tend)
				g.window.Done()
			}
		}()
	}
}

// stop joins the helper goroutines; a later Run restarts them.
func (g *ShardGroup) stop() {
	if len(g.helpers) == 0 {
		return
	}
	for _, ch := range g.helpers {
		close(ch)
	}
	g.joined.Wait()
	g.helpers = nil
}
