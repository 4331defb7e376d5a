package dataplane

// Serial-substrate determinism fixture: checked as if it were part of
// fastflex/internal/dataplane, a package below the concurrency boundary
// that is deterministic by construction (pure functions of injected
// inputs). Residually two rules apply: the goroutine ban — a goroutine
// anywhere below experiment.Runner hands event ordering to the Go
// scheduler — and the module-wide ban on minting rand sources.

import (
	"math/rand"

	"fastflex/internal/packet"
)

func fineHelpers(counts map[string]int) int {
	// Map iteration is not flagged in substrate packages (their outputs
	// are order-independent aggregates by construction).
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

func spawnPipeline(done chan struct{}) {
	go close(done) // want determinism "goroutine launch below the concurrency boundary"
}

// poolHolder is the shape of dataplane.Context: the pipeline holds the
// executing partition's packet pool, injected per pass, and takes what it
// emits from it. Nothing is flagged — a pool hands out zeroed packets, so
// which object it picks is unobservable, and it is only ever touched by the
// goroutine that runs the pass.
type poolHolder struct {
	pool *packet.Pool
}

func (h *poolHolder) emit(src *packet.Packet) (*packet.Packet, *packet.Packet) {
	return h.pool.GetProbe(), h.pool.Clone(src)
}

// Holding injected state is no licence to hold private state: randomness
// still arrives through the Rand interface, never from a source built here.
func (h *poolHolder) privateRNG() float64 {
	r := rand.New(rand.NewSource(7)) // want determinism "math/rand.New outside internal/eventsim" // want determinism "math/rand.NewSource outside internal/eventsim"
	return r.Float64()
}
