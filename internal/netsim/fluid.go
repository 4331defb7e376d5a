package netsim

import (
	"fmt"
	"time"

	"fastflex/internal/eventsim"
	"fastflex/internal/topo"
)

// Fluid background-traffic substrate.
//
// A FluidFlow is an aggregate of many background senders collapsed into one
// rate-based object: instead of one event per packet, each link a flow
// crosses keeps a piecewise-constant input rate for it and advances its
// queue occupancy in closed form whenever anything touches the link (a rate
// change, a queue-empty crossing, a foreground packet, a utilization tick).
// Between touch points nothing is scheduled at all, so a flow modeling 10^4
// hosts costs the same events as one modeling a single host — event count
// scales with rate *changes*, not with bytes.
//
// Rate model per link (capacity C bytes/s, buffer cap B bytes, aggregate
// input F = sum of per-flow input rates, queue occupancy q):
//
//	output rate  R = C            if q > 0 (server drains at capacity)
//	             R = min(F, C)    if q == 0
//	dq/dt        = F - C          while q in (0, B); excess beyond B drops
//	                              at rate F - C (analytic, no event)
//
// The only discontinuity that needs an event is the queue-empty crossing
// (R steps from C down to F): it is scheduled at the analytically known
// drain time and re-derived whenever rates change. Queue-full needs no
// event — R stays C and the integration attributes the overflow to drops.
//
// Per-flow output rates are proportional shares R_i = R * F_i / F; when a
// flow's output rate changes, the new rate is applied to its next hop after
// this link's propagation delay (+1 ns, mirroring the tx >= 1 ns floor that
// keeps packet hand-offs strictly beyond a conservative window). Updates
// whose next hop lives in another shard ride the existing hand-off rings
// with a nil packet, so the windowed engine's barrier protocol carries both
// substrates identically.
//
// Foreground packets see fluid queues as load: admission shares the byte
// cap with the fluid backlog (deterministic tail-drop, no RNG draw) and the
// serializer clears q/C of backlog latency ahead of each packet. The fluid
// side treats foreground bytes as negligible against aggregate background —
// the documented one-way approximation (DESIGN.md "Fluid/packet hybrid").
//
// All float accumulation over flow/link sets iterates index-ordered dense
// slices (never map ranges), keeping reductions deterministic — the same
// rule ffvet enforces on the packet path.

// FluidFlow is an aggregate rate-based background flow pinned to a fixed
// path. One flow stands in for Hosts modeled senders; its offered rate is
// the aggregate of all of them.
type FluidFlow struct {
	net   *Network
	path  []topo.LinkID
	ci    []int // ci[h]: this flow's contribution index on path[h]
	hosts int

	srcRate     float64 // configured offered rate, bytes/sec
	appliedRate float64 // rate currently applied at path[0]
	injected    float64 // offered bytes integrated through lastSet
	lastSet     time.Duration
	delivered   float64 // bytes that exited the terminal hop
	started     bool
}

// fluidContrib is one flow's per-link state: its current input rate on this
// link and its share of the link's output. Contributions live in a dense
// slice in flow-registration order, so every reduction over them is an
// index-ordered loop.
type fluidContrib struct {
	flow *FluidFlow
	hop  int
	rate float64 // input rate on this link, bytes/sec
	out  float64 // output (service) rate on this link, bytes/sec
}

// fluidLink is the per-link fluid state, attached lazily to a linkState the
// first time a flow registers a hop there. Links no flow crosses keep a nil
// pointer and pay nothing — which is also what makes Config.Fluid=off
// byte-identical to the packet-only engine.
type fluidLink struct {
	ls   *linkState
	cap  float64 // service capacity, bytes/sec
	qcap float64 // shared buffer capacity, bytes

	lastAt time.Duration // virtual time the closed-form advance has reached
	q      float64       // queue occupancy, bytes
	in     float64       // aggregate input rate, bytes/sec
	out    float64       // aggregate output rate, bytes/sec

	contribs  []fluidContrib
	nTerminal int // contributions whose hop is their flow's last

	offered     float64 // cumulative bytes offered (integral of in)
	delivered   float64 // cumulative bytes served
	dropped     float64 // cumulative bytes dropped at the full buffer
	windowBytes float64 // bytes served since the last utilization roll

	// emptyEv is the pending queue-empty boundary event; emptyFn is its
	// preallocated callback. rank mints merge ranks for boundary events and
	// downstream rate updates (windowed mode).
	emptyEv *eventsim.Event
	emptyFn func()
	rank    eventsim.RankOwner

	// flushEv/flushFn implement output coalescing. Rate arrivals update the
	// link's aggregates (exact ledger) immediately but defer recomputing
	// per-flow output shares to one flush event 1 ns later. Without this, K
	// same-instant arrivals at a shared congested link each re-propagate
	// all K changed shares — K^2 downstream updates per hop, exponential
	// along shared congested paths. With it, an instant's worth of arrivals
	// costs one flush and at most one update per flow.
	flushEv *eventsim.Event
	flushFn func()
}

// eng returns the engine whose clock governs this link: the owning shard's
// engine (the coordinator engine in serial mode). At barriers every engine
// agrees on the time, so coordinator-context callers may use it too.
func (fl *fluidLink) eng() *eventsim.Engine { return fl.ls.sh.eng }

// fluidFor returns (creating on first use) the fluid state of a link.
func (n *Network) fluidFor(l topo.LinkID) *fluidLink {
	ls := n.links[l]
	if ls.fluid == nil {
		fl := &fluidLink{
			ls:   ls,
			cap:  ls.link.BitsPerSec / 8,
			qcap: float64(n.Cfg.QueueBytes),
			rank: n.newRankOwner(),
		}
		fl.emptyFn = fl.queueEmpty
		fl.flushFn = fl.flush
		ls.fluid = fl
	}
	return ls.fluid
}

// NewFluidFlow creates a fluid flow along the shortest path from src to
// dst, offered at rateBps (bits/sec) and standing in for hosts modeled
// senders. The flow is created stopped; Start applies the rate.
func (n *Network) NewFluidFlow(src, dst topo.NodeID, rateBps float64, hosts int) *FluidFlow {
	p, ok := n.G.ShortestPath(src, dst, nil)
	if !ok {
		panic(fmt.Sprintf("netsim: no path for fluid flow %d -> %d", src, dst))
	}
	return n.NewFluidFlowPath(p.Links, rateBps, hosts)
}

// NewFluidFlowPath creates a fluid flow pinned to an explicit directed link
// path. Creation order is part of the simulation's deterministic setup:
// contribution order on shared links follows it.
func (n *Network) NewFluidFlowPath(path []topo.LinkID, rateBps float64, hosts int) *FluidFlow {
	if !n.Cfg.Fluid {
		panic("netsim: fluid flows need Config.Fluid; the default packet-only engine stays byte-identical without them")
	}
	if len(path) == 0 {
		panic("netsim: fluid flow needs a non-empty path")
	}
	for i := 1; i < len(path); i++ {
		if n.G.Links[path[i-1]].To != n.G.Links[path[i]].From {
			panic(fmt.Sprintf("netsim: fluid path discontinuous at hop %d: link %d ends at node %d, link %d starts at node %d",
				i, path[i-1], n.G.Links[path[i-1]].To, path[i], n.G.Links[path[i]].From))
		}
	}
	if hosts < 1 {
		hosts = 1
	}
	f := &FluidFlow{
		net:     n,
		path:    append([]topo.LinkID(nil), path...),
		ci:      make([]int, len(path)),
		hosts:   hosts,
		srcRate: rateBps / 8,
	}
	for h, lid := range f.path {
		fl := n.fluidFor(lid)
		f.ci[h] = len(fl.contribs)
		fl.contribs = append(fl.contribs, fluidContrib{flow: f, hop: h})
		if h == len(f.path)-1 {
			fl.nTerminal++
		}
	}
	n.fluidFlows = append(n.fluidFlows, f)
	return f
}

// Start applies the configured rate at the first hop. Like packet sources,
// call it from coordinator context: setup code before Run, or a callback
// scheduled on n.Eng (which executes at a barrier in windowed mode).
func (f *FluidFlow) Start() {
	if f.started {
		return
	}
	f.started = true
	f.applySource(f.srcRate)
}

// Stop withdraws the flow's offered load; in-network queues drain on their
// own and downstream rates decay hop by hop at propagation speed.
func (f *FluidFlow) Stop() {
	if !f.started {
		return
	}
	f.started = false
	f.applySource(0)
}

// SetRate changes the offered rate (bits/sec), applying it immediately if
// the flow is started. Coordinator context only, like Start.
func (f *FluidFlow) SetRate(rateBps float64) {
	f.srcRate = rateBps / 8
	if f.started {
		f.applySource(f.srcRate)
	}
}

// Hosts returns how many modeled senders this aggregate stands in for.
func (f *FluidFlow) Hosts() int { return f.hosts }

// Path returns the flow's pinned link path.
func (f *FluidFlow) Path() []topo.LinkID { return f.path }

// DeliveredBytes returns the bytes that have exited the flow's final hop.
func (f *FluidFlow) DeliveredBytes() float64 { return f.delivered }

// InjectedBytes returns the bytes the flow has offered at its first hop up
// to the coordinator clock.
func (f *FluidFlow) InjectedBytes() float64 {
	return f.injected + f.appliedRate*(f.net.Eng.Now()-f.lastSet).Seconds()
}

// applySource integrates the injection account and applies a new source
// rate at the first hop.
func (f *FluidFlow) applySource(rate float64) {
	now := f.net.Eng.Now()
	f.injected += f.appliedRate * (now - f.lastSet).Seconds()
	f.lastSet = now
	f.appliedRate = rate
	f.net.applyFluidRate(f.path[0], f.ci[0], rate)
}

// applyFluidRate sets one contribution's input rate on a link, advancing
// the link to the current time first and recomputing shares after. It runs
// either in the link's shard (scheduled updates) or in coordinator context
// at a barrier (source changes, hand-off injection targets) — the clocks
// agree in both cases.
func (n *Network) applyFluidRate(l topo.LinkID, ci int, rate float64) {
	fl := n.links[l].fluid
	now := fl.eng().Now()
	fl.advance(now)
	if fl.contribs[ci].rate == rate {
		return
	}
	fl.contribs[ci].rate = rate
	fl.recompute(now)
}

// advance integrates the fluid state from lastAt to now in closed form.
// Rates are constant over the interval (every rate change recomputes at its
// own instant, and the queue-empty boundary has its own event), so the
// integral needs at most one phase split — the buffer filling to its cap —
// which is handled analytically.
func (fl *fluidLink) advance(now time.Duration) {
	if now <= fl.lastAt {
		return
	}
	dt := (now - fl.lastAt).Seconds()
	fl.lastAt = now
	fl.offered += fl.in * dt
	var served float64
	switch {
	case fl.in > fl.cap:
		// Overload: serve at capacity, the excess fills the buffer and then
		// drops. No event needed — the output rate never changes here.
		served = fl.cap * dt
		fl.q += (fl.in - fl.cap) * dt
		if fl.q > fl.qcap {
			fl.dropped += fl.q - fl.qcap
			fl.q = fl.qcap
		}
	case fl.q > 0:
		// Draining. The queue-empty boundary event lands on a nanosecond
		// tick, so integer-time rounding can push an advance just past the
		// true empty point; serve the residual then and pin q at zero.
		drain := (fl.cap - fl.in) * dt
		if drain < fl.q {
			served = fl.cap * dt
			fl.q -= drain
		} else {
			var te float64
			if fl.cap > fl.in {
				te = fl.q / (fl.cap - fl.in)
			}
			served = fl.cap*te + fl.in*(dt-te)
			fl.q = 0
		}
	default:
		served = fl.in * dt
	}
	fl.delivered += served
	fl.windowBytes += served
	if fl.nTerminal > 0 {
		// Attribute terminal-hop output to flow goodput. Output rates are
		// constant across the interval by the same argument as above.
		for i := range fl.contribs {
			c := &fl.contribs[i]
			if c.hop == len(c.flow.path)-1 {
				c.flow.delivered += c.out * dt
			}
		}
	}
}

// recompute refreshes the aggregate input rate after a contribution change
// or a queue-empty crossing, reschedules the boundary event, and arms the
// output flush. The exact ledger (offered/served/dropped integration) sees
// the new aggregates immediately; per-flow output shares follow at the
// flush, 1 ns later, so a burst of same-instant arrivals propagates once.
// advance(now) must have run first.
func (fl *fluidLink) recompute(now time.Duration) {
	in := 0.0
	for i := range fl.contribs {
		in += fl.contribs[i].rate
	}
	fl.in = in

	if fl.emptyEv != nil {
		fl.eng().Drop(fl.emptyEv)
		fl.emptyEv = nil
	}
	if fl.q > 0 && in < fl.cap {
		d := time.Duration(fl.q / (fl.cap - in) * 1e9)
		if d < 1 {
			d = 1
		}
		fl.emptyEv = fl.schedule(now+d, fl.emptyFn)
	}

	if fl.flushEv == nil {
		fl.flushEv = fl.schedule(now+1, fl.flushFn)
	}
}

// flush recomputes every flow's output share from the link's current state
// and propagates the changes downstream. It is the only writer of contrib
// outputs, so between flushes every output rate is piecewise-constant and
// advance's closed-form integration stays exact.
func (fl *fluidLink) flush() {
	fl.flushEv = nil
	now := fl.eng().Now()
	fl.advance(now)
	in := fl.in
	out := in
	if fl.q > 0 {
		out = fl.cap
	} else if out > fl.cap {
		out = fl.cap
	}
	fl.out = out

	switch {
	case in > 0:
		inv := out / in
		for i := range fl.contribs {
			fl.setOut(now, i, fl.contribs[i].rate*inv)
		}
	case fl.q > 0:
		// Every input stopped but the backlog still drains: keep the
		// previous mixture, rescaled to the service rate.
		prev := 0.0
		for i := range fl.contribs {
			prev += fl.contribs[i].out
		}
		if prev > 0 {
			scale := out / prev
			for i := range fl.contribs {
				fl.setOut(now, i, fl.contribs[i].out*scale)
			}
		}
	default:
		for i := range fl.contribs {
			fl.setOut(now, i, 0)
		}
	}
}

// fluidRateNoise is the cascade dead-band as a fraction of link capacity.
// Proportional-share redistribution is not bit-exact (rate*(C/in) != C even
// for a single flow), so settled links re-emit ±ulp output jitter on every
// upstream touch; around a cycle of flows sharing congested links that
// jitter re-circulates forever. Changes below the dead-band are absorbed:
// the stale output persists downstream, bounding the modeling error per
// hop at 1e-9 of capacity (~0.01 byte/s on a 100 Mbps link) while
// guaranteeing every cascade terminates. Transitions to or from silence
// always propagate, so stopped flows drain downstream queues completely.
const fluidRateNoise = 1e-9

// setOut updates one contribution's output rate, propagating the change to
// the flow's next hop when it changed by more than the dead-band. Exact
// float equality handles the common settled case (pass-through links
// reproduce the same bits); the dead-band handles redistribution jitter.
func (fl *fluidLink) setOut(now time.Duration, i int, out float64) {
	c := &fl.contribs[i]
	if c.out == out {
		return
	}
	if out != 0 && c.out != 0 {
		d := out - c.out
		if d < 0 {
			d = -d
		}
		if d <= fl.cap*fluidRateNoise {
			return
		}
	}
	c.out = out
	if c.hop+1 < len(c.flow.path) {
		fl.sendUpdate(now, c.flow, c.hop+1, out)
	}
}

// sendUpdate delivers a new input rate for flow f at path[hop], one
// propagation delay (+1 ns) downstream. Same-shard targets schedule on the
// local engine; cross-shard targets ride the packet hand-off rings with a
// nil packet, so the conservative window protocol (and adaptive bound)
// covers fluid updates by the same argument as packet hand-offs: they are
// emitted by an event at t >= the window base and land at t + prop + 1ns,
// strictly beyond any bound derived from cut-link propagation delays.
func (fl *fluidLink) sendUpdate(now time.Duration, f *FluidFlow, hop int, rate float64) {
	n := fl.ls.net
	target := f.path[hop]
	ci := f.ci[hop]
	at := now + time.Duration(fl.ls.link.DelayNS) + 1
	if !n.windowed {
		n.Eng.Schedule(at, func() { n.applyFluidRate(target, ci, rate) })
		return
	}
	rank := fl.rank.Next()
	dst := int(n.shardOf[n.G.Links[target].From])
	if dst == fl.ls.sh.idx {
		fl.ls.sh.eng.ScheduleRank(at, rank, func() { n.applyFluidRate(target, ci, rate) })
		return
	}
	fl.ls.sh.out[dst].push(handoff{at: at, rank: rank, link: target, fci: int32(ci), frate: rate})
}

// schedule places a callback on the link's engine, ranked in windowed mode.
func (fl *fluidLink) schedule(at time.Duration, fn func()) *eventsim.Event {
	if fl.ls.net.windowed {
		return fl.ls.sh.eng.ScheduleRank(at, fl.rank.Next(), fn)
	}
	return fl.ls.net.Eng.Schedule(at, fn)
}

// queueEmpty is the boundary event at the analytically computed drain time:
// the output rate steps from capacity down to the input rate, which is the
// one fluid transition that must propagate downstream.
func (fl *fluidLink) queueEmpty() {
	fl.emptyEv = nil
	now := fl.eng().Now()
	fl.advance(now)
	// Integer event times can land 1 ns shy of the exact drain point; the
	// residual is served here so conservation stays exact.
	fl.delivered += fl.q
	fl.windowBytes += fl.q
	fl.q = 0
	fl.recompute(now)
}

// FluidInjectedBytes sums offered bytes over all fluid flows up to the
// coordinator clock.
func (n *Network) FluidInjectedBytes() float64 {
	var t float64
	for _, f := range n.fluidFlows {
		t += f.InjectedBytes()
	}
	return t
}

// FluidDeliveredBytes sums bytes that exited each flow's terminal hop.
func (n *Network) FluidDeliveredBytes() float64 {
	var t float64
	for _, f := range n.fluidFlows {
		t += f.delivered
	}
	return t
}

// FluidDroppedBytes sums bytes dropped at full buffers over all links,
// advanced to the coordinator clock. Coordinator context only.
func (n *Network) FluidDroppedBytes() float64 {
	var t float64
	for _, ls := range n.links {
		if ls.fluid != nil {
			ls.fluid.advance(ls.fluid.eng().Now())
			t += ls.fluid.dropped
		}
	}
	return t
}

// FluidQueuedBytes sums fluid backlog over all links, advanced to the
// coordinator clock. Coordinator context only.
func (n *Network) FluidQueuedBytes() float64 {
	var t float64
	for _, ls := range n.links {
		if ls.fluid != nil {
			ls.fluid.advance(ls.fluid.eng().Now())
			t += ls.fluid.q
		}
	}
	return t
}

// FluidLinkStats returns one link's cumulative fluid counters (offered,
// served, and dropped bytes, plus current backlog), advanced to the
// coordinator clock; zeros for links no flow crosses. The per-link
// conservation invariant offered == delivered + dropped + queued holds at
// every instant by construction of the closed-form advance.
func (n *Network) FluidLinkStats(l topo.LinkID) (offered, delivered, dropped, queued float64) {
	fl := n.links[l].fluid
	if fl == nil {
		return 0, 0, 0, 0
	}
	fl.advance(fl.eng().Now())
	return fl.offered, fl.delivered, fl.dropped, fl.q
}

// ModeledHosts counts every host the simulation stands for: real host
// nodes plus the senders aggregated inside fluid flows.
func (n *Network) ModeledHosts() int {
	t := 0
	for _, h := range n.hosts {
		if h != nil {
			t++
		}
	}
	for _, f := range n.fluidFlows {
		t += f.hosts
	}
	return t
}
