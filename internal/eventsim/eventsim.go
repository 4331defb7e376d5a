package eventsim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"
)

// Event is a callback scheduled to run at a virtual time.
//
// Lifecycle: the engine owns fired events. Once an event has fired, its
// *Event may be recycled for a later Schedule/After call, so handles must
// only be retained for *pending* events. A holder that is done with a
// pending event either Cancels it and may keep the handle (it goes on
// reporting Cancelled), or Drops it — cancel-and-forget, as Ticker and the
// netsim sources do — and the engine recycles that event too. Cancelling or
// dropping the currently-firing event from inside its own callback is safe;
// doing either through a stale handle after the event fired is not.
type Event struct {
	At time.Duration // virtual time at which the event fires
	Fn func()        // callback; runs with the clock set to At

	// Class and Key tag an event for batch fusion (see PopAdjacent): a
	// model that schedules many events of one kind may mark them with a
	// non-zero class byte and an identifying key, letting the callback of
	// one event drain the run of same-time, same-class events that would
	// fire immediately after it. Both are cleared when the event is
	// recycled; events left untagged (Class 0) are never fused.
	Class uint8
	Key   int32

	seq  uint64 // tie-breaker: insertion order for equal At
	next *Event // intrusive link in the calendar bucket's sorted list
	idx  int    // bucket index, farIdx in the far tier, -1 otherwise
	dead bool   // set by Cancel and Drop
	// forgot marks a dead far-tier event whose handle was given up (Drop):
	// the sweep that removes it from the far buffer recycles it.
	forgot bool
}

// Cancelled reports whether the event was cancelled before firing.
func (e *Event) Cancelled() bool { return e.dead }

// evLess orders events by time, then insertion order (FIFO tie-break).
// (At, seq) is unique per event, so this is a strict total order: the pop
// sequence is fully determined by the keys, independent of how the queue
// is laid out — which is what makes the calendar queue output-identical
// to the binary heap it replaced.
//
// The lexicographic compare is phrased as a 128-bit subtract-with-borrow
// (bits.Sub64 lowers to SBB) rather than `a.At < b.At || ...`: key
// comparisons on event times are near coin flips, and the short-circuit
// form costs a branch mispredict on most of them. Virtual times are
// non-negative (Schedule panics on the past), so the uint64(At)
// reinterpretation preserves order.
func evLess(a, b *Event) bool {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.At), uint64(b.At), borrow)
	return borrow != 0
}

// The near tier is a calendar queue (Brown 1988): a ring of numBuckets
// time windows of bucketWidth each, where bucket i holds the sorted list
// of pending events whose fire time falls in window i of some lap. Both
// enqueue and dequeue are O(1) amortized — no per-operation log-factor
// comparisons at all, unlike a heap.
const (
	bucketShift = 13 // 8.192µs windows
	numBuckets  = 1024
	bucketMask  = numBuckets - 1
	bucketWidth = time.Duration(1) << bucketShift
	ringSpan    = bucketWidth * numBuckets // one full lap: ~8.4ms
)

func bucketOf(at time.Duration) int {
	return int(uint64(at)>>bucketShift) & bucketMask
}

// farWindow sizes the near-future horizon of the split queue: only events
// due within this much virtual time of the earliest pending event live in
// the calendar ring; everything later sits in the unordered far buffer.
// Packet-timescale events (transmissions, hops) are microseconds out,
// while timers (retransmission, reconfiguration tickers) are tens to
// hundreds of milliseconds out — the split keeps the ring sparsely
// occupied and makes cancelling a distant timer O(1). Half a lap, so a
// migrated batch plus directly scheduled traffic stays well under one
// ring revolution.
const farWindow = ringSpan / 2

// farIdx marks an event parked in the far buffer; its position is not
// tracked because cancellation there is lazy (see Cancel).
const farIdx = -2

// farEntry is one far-buffer slot; the fire time is inlined so migration
// sweeps scan a contiguous array.
type farEntry struct {
	at time.Duration
	ev *Event
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with New.
//
// The event queue is split in two tiers. Events due before `split` live in
// the calendar ring (`buckets`); later events sit unordered in `far` and
// migrate into the ring in batches as the clock approaches them. The
// tiering preserves the exact (At, seq) pop order — every far event is due
// no earlier than every ring event — while keeping the ring sparse and
// making timer cancellation O(1). The hot path (Schedule/Step, executed
// once or twice per simulated packet per hop) performs no log-factor
// comparison work and no interface dispatch, and fired events are recycled
// through a free list so steady-state scheduling performs no allocations
// (pinned by TestScheduleSteadyStateZeroAlloc).
type Engine struct {
	now time.Duration
	seq uint64

	// Near tier: every live event with At < split, bucketed by fire time.
	// cur/curEnd are the dequeue cursor: curEnd is the exclusive end of
	// bucket cur's current window, and no live near event fires before
	// curEnd-bucketWidth (inserting behind the cursor pulls it back).
	// occ mirrors bucket occupancy one bit per bucket, so the cursor
	// crosses idle stretches by word scan instead of probing every empty
	// bucket in between.
	buckets [numBuckets]*Event
	// tails[b] is the last event of bucket b's sorted list (nil when the
	// bucket is empty). Simulated traffic is overwhelmingly scheduled in
	// near-FIFO order, so most insertions land at or after the current
	// tail; the tail pointer turns that common case into an O(1) append
	// instead of a full list walk.
	tails     [numBuckets]*Event
	occ       [numBuckets / 64]uint64
	nearCount int
	cur       int
	curEnd    time.Duration

	// Far tier: live events with At >= split, plus cancelled entries not
	// yet dropped. farLive counts only the live ones.
	far     []farEntry
	farLive int
	split   time.Duration

	rng     *rand.Rand
	stopped bool
	fired   uint64

	// rankOnly marks a shard engine: every event must carry an explicit
	// merge rank (ScheduleRank/AfterRank), so the pop order is a pure
	// function of partition-invariant keys rather than of engine-local
	// insertion order. See RequireRank.
	rankOnly bool

	// free is the recycle list for fired and dropped events. Cancelled
	// events are deliberately *not* recycled: callers may retain their
	// handles (to call Cancel again, or Cancelled), and reusing them would
	// redirect those stale handles at unrelated events. Drop is how a caller
	// says it retains nothing.
	free []*Event
}

// New returns an engine whose RNG is seeded with seed. The same seed and the
// same schedule of events always produce the same execution.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), curEnd: bucketWidth}
}

// Reset returns the engine to its just-built state, reseeding the RNG, so
// a warm engine can host a fresh run without reconstruction. The clock,
// sequence counter, calendar ring, far buffer, and fired count all return
// to zero; ranked mode and the event free list survive (recycled events
// carry no state between runs). Pending events are dropped to the garbage
// collector rather than recycled: callers may still hold their handles
// (tickers, retransmission timers), and recycling would redirect those
// stale handles at unrelated future events. Tickers that should survive a
// reset must be re-armed afterwards with Rearm, in the same order they were
// created, so the seq numbering of a reset engine replays a fresh build's.
func (e *Engine) Reset(seed int64) {
	for b := range e.buckets {
		e.buckets[b] = nil
		e.tails[b] = nil
	}
	for i := range e.occ {
		e.occ[i] = 0
	}
	e.nearCount = 0
	e.cur = 0
	e.curEnd = bucketWidth
	for i := range e.far {
		e.far[i] = farEntry{}
	}
	e.far = e.far[:0]
	e.farLive = 0
	e.split = 0
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.stopped = false
	e.rng.Seed(seed)
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// RNG returns the engine's deterministic random source. All model code must
// draw randomness from here rather than from package-level rand.
func (e *Engine) RNG() *rand.Rand { return e.rng }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued. Cancelled events are
// never counted: near-tier cancels remove eagerly and far-tier cancels
// decrement the live count immediately.
func (e *Engine) Pending() int { return e.nearCount + e.farLive }

// insertNear files ev into its calendar bucket, keeping the bucket's list
// sorted by (At, seq). Buckets are sparse (the far tier keeps distant
// timers out of the ring), so the insertion walk is a handful of steps.
func (e *Engine) insertNear(ev *Event) {
	b := bucketOf(ev.At)
	ev.idx = b
	if ev.At < e.curEnd-bucketWidth {
		// The cursor coasted ahead of the clock across empty buckets
		// (peeking at a distant next event); pull it back so the new
		// earlier event is not skipped.
		e.cur = b
		e.curEnd = (ev.At &^ (bucketWidth - 1)) + bucketWidth
	}
	h := e.buckets[b]
	switch {
	case h == nil:
		ev.next = nil
		e.buckets[b] = ev
		e.tails[b] = ev
		e.occ[b>>6] |= 1 << uint(b&63)
	case !evLess(ev, e.tails[b]):
		// At or after the tail — (At, seq) keys are unique, so this means
		// strictly after: append. This is the near-universal case for
		// packet traffic, which is scheduled in close to FIFO order.
		ev.next = nil
		e.tails[b].next = ev
		e.tails[b] = ev
	case evLess(ev, h):
		ev.next = h
		e.buckets[b] = ev
	default:
		// Interior insert: ev sorts strictly before the tail, so the walk
		// always terminates at a non-nil successor and the tail stands.
		p := h
		for p.next != nil && evLess(p.next, ev) {
			p = p.next
		}
		ev.next = p.next
		p.next = ev
	}
	e.nearCount++
}

// nextOccupied returns the cyclic distance (1..numBuckets) from bucket
// `from` to the next occupied bucket strictly after it; a full lap back
// to `from` itself yields numBuckets. At least one bucket must be
// occupied (nearCount > 0).
func (e *Engine) nextOccupied(from int) int {
	const words = numBuckets / 64
	start := (from + 1) & bucketMask
	w := start >> 6
	for k := 0; k <= words; k++ {
		word := e.occ[(w+k)&(words-1)]
		if k == 0 {
			word &= ^uint64(0) << uint(start&63)
		}
		if word != 0 {
			b := ((w+k)&(words-1))<<6 | bits.TrailingZeros64(word)
			if d := (b - from) & bucketMask; d != 0 {
				return d
			}
			return numBuckets
		}
	}
	panic("eventsim: nextOccupied on empty ring")
}

// peekMin returns the earliest near event without removing it, advancing
// the cursor to its bucket. The caller must ensure nearCount > 0.
//
// Correctness of the window check: bucket membership is a pure function
// of the fire time, every live near event fires at or after
// curEnd-bucketWidth (insertNear pulls the cursor back otherwise), and
// in-bucket lists are sorted. So when the head of the cursor's bucket
// fires inside the cursor's window, every other event — later buckets
// this lap, earlier buckets next lap, or later laps of this bucket —
// fires at or after curEnd, and the head is the global minimum. Ties in
// fire time land in the same bucket, where seq orders them.
func (e *Engine) peekMin() *Event {
	for scanned := 0; ; {
		if h := e.buckets[e.cur]; h != nil && h.At < e.curEnd {
			return h
		}
		// Skip straight to the next occupied bucket; the gap holds no
		// events on any lap, so its windows pass vacuously.
		d := e.nextOccupied(e.cur)
		e.cur = (e.cur + d) & bucketMask
		e.curEnd += time.Duration(d) << bucketShift
		if scanned += d; scanned > numBuckets {
			// A whole lap with nothing due: the next event is more than
			// one ring revolution ahead. Jump straight to it.
			e.jumpCursor()
			scanned = 0
		}
	}
}

// jumpCursor repositions the cursor at the earliest queued near event by
// direct search — the rare path, taken only when the next event is more
// than a full ring span away.
func (e *Engine) jumpCursor() {
	var min *Event
	for _, h := range e.buckets {
		if h != nil && (min == nil || evLess(h, min)) {
			min = h
		}
	}
	e.cur = bucketOf(min.At)
	e.curEnd = (min.At &^ (bucketWidth - 1)) + bucketWidth
}

// popMin removes and returns the earliest near event. The caller must
// ensure nearCount > 0.
func (e *Engine) popMin() *Event {
	ev := e.peekMin()
	if e.buckets[e.cur] = ev.next; ev.next == nil {
		e.occ[e.cur>>6] &^= 1 << uint(e.cur&63)
		e.tails[e.cur] = nil
	}
	ev.next = nil
	ev.idx = -1
	e.nearCount--
	return ev
}

// removeNear unlinks a cancelled event from its bucket.
func (e *Engine) removeNear(ev *Event) {
	b := ev.idx
	if p := e.buckets[b]; p == ev {
		if e.buckets[b] = ev.next; ev.next == nil {
			e.occ[b>>6] &^= 1 << uint(b&63)
			e.tails[b] = nil
		}
	} else {
		for p.next != ev {
			p = p.next
		}
		if p.next = ev.next; ev.next == nil {
			e.tails[b] = p
		}
	}
	ev.next = nil
	ev.idx = -1
	e.nearCount--
}

// migrate advances the near/far boundary and moves every live far event
// that falls under it into the calendar ring. Callers must ensure
// farLive > 0; the new boundary clears the earliest far event, so the
// ring is non-empty on return. Cancelled entries are dropped here (dropped
// ones recycled — see the free-list comment). Both passes scan the buffer in
// append order, so the whole operation is a deterministic function of the
// schedule/cancel history.
func (e *Engine) migrate() {
	var minAt time.Duration
	found := false
	for _, fe := range e.far {
		if !fe.ev.dead && (!found || fe.at < minAt) {
			minAt, found = fe.at, true
		}
	}
	split := minAt + farWindow
	keep := e.far[:0]
	for _, fe := range e.far {
		if fe.ev.dead {
			e.sweep(fe.ev)
			continue
		}
		if fe.at < split {
			e.insertNear(fe.ev)
			e.farLive--
		} else {
			keep = append(keep, fe)
		}
	}
	for i := len(keep); i < len(e.far); i++ {
		e.far[i] = farEntry{} // unpin dropped events
	}
	e.far = keep
	e.split = split
}

// compactFar drops cancelled entries from the far buffer in place,
// bounding its growth when timers are cancelled much faster than the
// clock advances (the AIMD sources cancel one retransmission timer per
// acknowledged segment).
func (e *Engine) compactFar() {
	keep := e.far[:0]
	for _, fe := range e.far {
		if fe.ev.dead {
			e.sweep(fe.ev)
		} else {
			keep = append(keep, fe)
		}
	}
	for i := len(keep); i < len(e.far); i++ {
		e.far[i] = farEntry{}
	}
	e.far = keep
}

// sweep disposes of a dead event leaving the far buffer: a dropped one goes
// back on the free list in the state a cleanly fired event is in, a
// cancelled one stays with whoever holds its handle.
func (e *Engine) sweep(ev *Event) {
	if ev.forgot {
		ev.dead, ev.forgot, ev.idx = false, false, -1
		e.release(ev)
	}
}

// alloc returns a reset Event, reusing a fired one when possible. The
// popped slot is not nil'ed: recycled events are immortal anyway (the
// free list never shrinks), so the stale pointer beyond len pins nothing
// that would otherwise be collected, and skipping the store drops a write
// barrier from every Schedule.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// release recycles a cleanly fired or dropped event (see the free-list
// comment). Every caller takes the event out of the queue first, which
// already leaves next=nil, idx=-1, and (checked) dead=false, so only the
// fusion tags need clearing here. Fn is deliberately left set — it is overwritten by the
// next alloc+Schedule, and nil'ing it would cost a write-barriered store
// per event; the price is that a free-listed event keeps its last
// callback alive until reuse, which is bounded by the free list size.
func (e *Engine) release(ev *Event) {
	ev.Class = 0
	ev.Key = 0
	e.free = append(e.free, ev)
}

// pushFar files a filled-in event into the far buffer. The Schedule
// variants branch between this and insertNear directly (rather than
// through a shared push helper) so the hot near-tier path stays one call
// deep.
func (e *Engine) pushFar(ev *Event) {
	ev.idx = farIdx
	e.far = append(e.far, farEntry{at: ev.At, ev: ev})
	e.farLive++
	if len(e.far) > 64 && len(e.far) > 4*e.farLive {
		e.compactFar()
	}
}

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// panics: it always indicates a model bug.
func (e *Engine) Schedule(at time.Duration, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("eventsim: schedule at %v before now %v", at, e.now))
	}
	if e.rankOnly {
		panic("eventsim: plain Schedule on a ranked engine; use ScheduleRank so merge order stays partition-invariant")
	}
	ev := e.alloc()
	ev.At = at
	ev.Fn = fn
	ev.seq = e.seq
	e.seq++
	if at < e.split {
		e.insertNear(ev)
	} else {
		e.pushFar(ev)
	}
	return ev
}

// After runs fn after delay d from the current virtual time.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return e.Schedule(e.now+d, fn)
}

// RequireRank puts the engine in ranked mode: every event must carry an
// explicit merge rank, and plain Schedule/After panic. Shard engines run
// ranked because their contents vary with the partition — an engine-local
// insertion counter would order same-time events differently for
// different shard counts, while per-entity ranks are invariant.
func (e *Engine) RequireRank() { e.rankOnly = true }

// ScheduleRank runs fn at absolute virtual time at, using rank instead of
// the engine's insertion counter as the equal-time tie-break (lower ranks
// fire first). Ranks must be unique per (engine, At); RankOwner derives
// them from per-entity counters, which makes the merged event order of a
// sharded simulation identical for any shard count.
func (e *Engine) ScheduleRank(at time.Duration, rank uint64, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("eventsim: schedule at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.At = at
	ev.Fn = fn
	ev.seq = rank
	if at < e.split {
		e.insertNear(ev)
	} else {
		e.pushFar(ev)
	}
	return ev
}

// AfterRank runs fn after delay d with an explicit merge rank.
func (e *Engine) AfterRank(d time.Duration, rank uint64, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("eventsim: negative delay %v", d))
	}
	return e.ScheduleRank(e.now+d, rank, fn)
}

// PeekAt returns the fire time of the earliest pending event without
// executing anything, and ok=false when the queue is empty. Peeking may
// migrate far events and advance the bucket cursor; both are
// deterministic bookkeeping with no simulation-visible effect.
func (e *Engine) PeekAt() (at time.Duration, ok bool) {
	if e.nearCount == 0 {
		if e.farLive == 0 {
			return 0, false
		}
		e.migrate()
	}
	return e.peekMin().At, true
}

// Cancel prevents a scheduled event from firing. Cancelling a pending or
// currently-firing event (or nil) is always safe; re-cancelling the same
// handle is a no-op. Handles to events that already fired must not be
// cancelled — the engine may have recycled them (see Event).
func (e *Engine) Cancel(ev *Event) { e.cancel(ev, false) }

// Drop is Cancel by a caller that gives the handle up: it must not touch ev
// again, and in return the engine recycles the Event like one that fired.
// Timers that are armed and disarmed once per packet (a retransmission
// timer per segment, cancelled by its ACK) are cancel-and-forget, and
// without this every one of them is garbage.
func (e *Engine) Drop(ev *Event) { e.cancel(ev, true) }

// cancel takes a pending event out of the queue; forget says the caller
// keeps no handle, so the Event goes back on the free list — at once from
// the near tier, at the next sweep from the far tier, and through the
// dispatch loop's own release if it is the event now firing.
//
//ffvet:hotpath
func (e *Engine) cancel(ev *Event, forget bool) {
	if ev == nil || ev.dead {
		return
	}
	switch {
	case ev.idx == farIdx:
		// Far-tier cancel is O(1): the entry is dropped lazily at the
		// next migration or compaction sweep.
		ev.dead, ev.forgot = true, forget
		e.farLive--
	case ev.idx < 0:
		ev.dead = !forget // currently firing (or already popped)
	default:
		e.removeNear(ev)
		if forget {
			e.release(ev)
		} else {
			ev.dead = true
		}
	}
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single next event, advancing the clock to its time.
// It returns false when the queue is empty.
//
// This is the simulator's dispatch loop: every packet transmission, hop,
// and timer funnels through here, so it must stay free of map traffic and
// interface dispatch (ev.Fn is a plain func field).
//
//ffvet:hotpath
func (e *Engine) Step() bool {
	if e.nearCount == 0 {
		if e.farLive == 0 {
			return false
		}
		e.migrate()
	}
	// The ring never holds cancelled events (near-tier cancels remove
	// eagerly, migration drops dead far entries), so the head is live.
	ev := e.popMin()
	e.now = ev.At
	e.fired++
	ev.Fn()
	// Recycle only events that fired cleanly: a Cancel from inside the
	// callback means the caller still holds (and may re-cancel) the
	// handle, so it must keep pointing at this event.
	if !ev.dead {
		e.release(ev)
	}
	return true
}

// Run executes events until the queue is empty, until the virtual clock
// would pass horizon, or until Stop is called. The clock finishes at
// min(horizon, last event time). It returns the number of events executed.
//
// The loop is Step with the pop fused into the peek: peekMin leaves the
// cursor parked on the head's bucket, so after the horizon check the head
// is unlinked in place instead of paying a second peek per event. Pop
// order is identical to repeated Step calls by construction.
//
//ffvet:hotpath
func (e *Engine) Run(horizon time.Duration) uint64 {
	start := e.fired
	e.stopped = false
	for !e.stopped {
		// Peek without popping so an over-horizon event stays queued.
		// Migration and cursor movement only reposition events and the
		// scan state, never fire anything, so peeking is side-effect
		// free as far as the simulation is concerned. The cursor-bucket
		// head check is peekMin's fast path, open-coded so the common
		// event-behind-event case pays no call: a non-nil head inside the
		// cursor window implies nearCount > 0 and is the global minimum.
		ev := e.buckets[e.cur]
		if ev == nil || ev.At >= e.curEnd {
			if e.nearCount == 0 {
				if e.farLive == 0 {
					break
				}
				e.migrate()
			}
			ev = e.peekMin()
		}
		if ev.At > horizon {
			break
		}
		if e.buckets[e.cur] = ev.next; ev.next == nil {
			e.occ[e.cur>>6] &^= 1 << uint(e.cur&63)
			e.tails[e.cur] = nil
		}
		ev.next = nil
		ev.idx = -1
		e.nearCount--
		e.now = ev.At
		e.fired++
		ev.Fn()
		if !ev.dead {
			e.release(ev)
		}
	}
	if e.now < horizon {
		e.now = horizon
	}
	return e.fired - start
}

// PopAdjacent removes the next pending event if and only if it fires at
// exactly the current virtual time and carries the given non-zero class
// tag, returning its Key. The event's callback is NOT invoked: the caller
// assumes responsibility for performing that event's work, in pop order,
// before returning to the dispatch loop. This is the batching primitive —
// the callback of one event drains the run of same-time, same-class
// events behind it into a batch and processes them together.
//
// Fusion is order-preserving by construction: all pending events fire at
// or after now, every event at exactly now lives in bucketOf(now) (bucket
// membership is a pure function of the fire time, and far-tier events are
// due strictly later than every near event), and that bucket's list is
// sorted by (At, seq). So the event removed here is precisely the one the
// dispatch loop would pop next. Work the caller performs while draining
// can only schedule events with later keys (serial seq counters and
// per-entity merge ranks grow monotonically), so it cannot change which
// event is adjacent. Fused events count toward Fired exactly as if they
// had dispatched individually.
//
// Events fused this way must not have retained handles: the Event is
// recycled immediately, so a later Cancel through an old handle would hit
// an unrelated event.
//
//ffvet:hotpath
func (e *Engine) PopAdjacent(class uint8) (key int32, ok bool) {
	if e.stopped || e.nearCount == 0 {
		return 0, false
	}
	// PopAdjacent runs inside an event callback, where the dequeue cursor
	// is parked on the fired event's bucket — which is bucketOf(now), since
	// bucket membership is a pure function of the fire time. Callbacks
	// cannot move the cursor (insertNear only pulls it back for events
	// before the current window, and nothing at >= now qualifies), so the
	// cursor bucket is the one holding any same-instant events.
	b := e.cur
	h := e.buckets[b]
	if h == nil || h.At != e.now || h.Class != class {
		return 0, false
	}
	if e.buckets[b] = h.next; h.next == nil {
		e.occ[b>>6] &^= 1 << uint(b&63)
		e.tails[b] = nil
	}
	h.next = nil
	h.idx = -1
	e.nearCount--
	e.fired++
	key = h.Key
	e.release(h)
	return key, true
}

// Ticker repeatedly invokes a callback on a fixed virtual-time period until
// stopped. It is the building block for TE reconfiguration loops, probe
// generators, and telemetry scrapes.
type Ticker struct {
	eng     *Engine
	period  time.Duration
	fn      func()
	arming  func() // preallocated re-arm closure, one per ticker
	pending *Event
	stopped bool
}

// NewTicker schedules fn every period, first firing one period from now.
// A period of zero or less panics.
func NewTicker(eng *Engine, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("eventsim: ticker period %v must be positive", period))
	}
	t := &Ticker{eng: eng, period: period, fn: fn}
	t.arming = func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.pending = t.eng.After(t.period, t.arming)
}

// Stop halts the ticker. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.pending != nil {
		t.eng.Drop(t.pending)
		t.pending = nil
	}
}

// Rearm restarts the ticker after its engine has been Reset. The old
// pending handle is dropped without cancellation — its event vanished with
// the queue, and cancelling through the stale handle could corrupt the
// rebuilt ring — and a fresh first fire is scheduled one period from now,
// consuming one seq exactly as NewTicker does. Calling Rearm on a ticker
// whose engine was NOT just reset double-arms it; don't.
func (t *Ticker) Rearm() {
	t.pending = nil
	t.stopped = false
	t.arm()
}
