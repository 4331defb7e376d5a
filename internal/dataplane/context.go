package dataplane

import (
	"time"

	"fastflex/internal/packet"
	"fastflex/internal/topo"
)

// Rand is the narrow deterministic randomness source PPMs may draw from.
// The simulator injects eventsim's single seeded RNG here; the dataplane
// package itself deliberately does not import math/rand, so no PPM can
// construct a private source and the determinism boundary stays enforceable
// by type (ffvet's determinism analyzer covers call sites; this interface
// covers construction).
type Rand interface {
	Float64() float64
	Intn(n int) int
	Int63n(n int64) int64
	Uint32() uint32
	Uint64() uint64
}

// Emission is an extra packet a PPM injects into the network.
type Emission struct {
	Pkt *packet.Packet
	// Via is the egress link, or -1 to flood on all switch-to-switch links
	// except the ingress.
	Via topo.LinkID
}

// Context carries one packet through a switch's pipeline. PPMs read the
// packet and metadata, and write their forwarding decision and emissions.
//
// Now is the virtual clock of the driving simulation (a time.Duration since
// simulation start, never a wall-clock read), injected per packet like RNG.
//
// Flow state is keyed through Pkt.Flow(): the five-tuple key and its table
// hash are derived once per packet, not once per table per hop, so a PPM
// that indexes a flow table (sketch.FlowTable.Observe, the reroute
// booster's flowlet pins) takes the pair from there rather than from
// Pkt.Key().
type Context struct {
	Now    time.Duration
	Switch topo.NodeID
	// InLink is the link the packet arrived on, or -1 for locally
	// originated packets.
	InLink topo.LinkID
	Pkt    *packet.Packet
	RNG    Rand
	// Pool is where a PPM takes the packets it emits from — a probe it
	// originates (GetProbe), a copy it re-floods (Clone) — so that they are
	// recycled at end of life like the traffic they ride with. It is the
	// pool of the partition executing this pass, injected per pass like RNG;
	// nil (a context built by hand) allocates from the heap. Pkt belongs to
	// the simulator: a PPM neither Puts it nor keeps it, and copies any
	// Probe layer or State bytes it wants to outlive the pass (packet.Pool).
	Pool *packet.Pool
	// Modes is the switch's active mode set at processing time, so PPMs
	// can adapt behavior across mode combinations (e.g. reroute-all vs
	// pin-normal-flows in Figure 2's step (2) vs step (3)).
	Modes ModeSet

	// OutLink is the chosen egress; -1 means no decision yet (the packet
	// is dropped with a no-route error if the pipeline ends that way).
	OutLink topo.LinkID

	emissions []Emission
}

// Emit schedules an extra packet for transmission after the pipeline
// completes. via = -1 floods it.
func (c *Context) Emit(p *packet.Packet, via topo.LinkID) {
	c.emissions = append(c.emissions, Emission{Pkt: p, Via: via})
}

// Emissions returns the packets emitted during this pipeline pass.
func (c *Context) Emissions() []Emission { return c.emissions }

// ClearEmissions drops already-dispatched emissions so one pooled context
// can carry every packet of a batch without a full per-packet Reset.
func (c *Context) ClearEmissions() {
	for i := range c.emissions {
		c.emissions[i] = Emission{}
	}
	c.emissions = c.emissions[:0]
}

// Reset clears the context for reuse, keeping the emissions backing array
// so pooled contexts (netsim recycles one per pipeline pass) stop
// allocating once the array has grown to the pipeline's emission high-water
// mark.
func (c *Context) Reset() {
	em := c.emissions[:0]
	for i := range c.emissions {
		c.emissions[i] = Emission{}
	}
	*c = Context{emissions: em}
}
