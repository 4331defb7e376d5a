// Package netsim is the discrete-event network simulator: links with
// store-and-forward transmission, finite tail-drop queues, and utilization
// accounting; switch nodes running dataplane pipelines; host endpoints
// with CBR and AIMD traffic sources, auto-ACK, and traceroute.
//
// Layer (DESIGN.md §2): sits on eventsim, topo, packet, and dataplane;
// boosters, state, attack, and experiment build on it.
//
// Determinism contract: a Network is single-threaded — everything runs as
// eventsim callbacks on one engine, and the only randomness is the
// engine's seeded RNG (loss injection, source phase desync). Same seed,
// same event trace, byte-identical results. Concurrency lives strictly
// above this package, in experiment.Runner, which runs independent
// Networks on separate goroutines; nothing here may spawn goroutines
// (enforced by ffvet's determinism analyzer).
//
// Beside the packet substrate, Config.Fluid enables rate-based fluid
// background flows (NewFluidFlow): aggregate traffic advanced
// analytically per link, carrying a modeled-host weight, with foreground
// packets seeing fluid queues as load (shared buffer admission, FIFO
// wait, residual-capacity service). Cost is O(rate changes), not
// O(packets), which is what makes 10^6-host backgrounds simulable; see
// DESIGN.md "Fluid/packet hybrid substrate".
//
// The forwarding hot path is enqueue → deliver → pipeline, one event per
// packet-hop: a FIFO link's departure time is known at admission, so
// enqueue computes it in closed form and schedules only the far-end
// delivery; the pipeline enqueues on the egress link inline. It is
// allocation-free in steady state: packets come from a per-Network pool
// and are recycled at end-of-life, per-link rings and one preallocated
// delivery callback avoid per-packet closures, and pipeline contexts are
// pooled. TestForwardSteadyStateZeroAlloc pins this.
package netsim
