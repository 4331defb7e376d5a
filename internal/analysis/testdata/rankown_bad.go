package netsim

import (
	"fastflex/internal/eventsim"
)

// Rank-ownership fixture, positive cases: an event ranked by the
// engine's own owner (After), a constant stream key, and a cross-shard
// write outside the barrier functions. A rank conjured from a literal or
// a loop index does not compile (rankown_unminted.go).

type shardState struct {
	eng       *eventsim.Engine
	delivered int
}

type Network struct {
	shards  []*shardState
	shardOf []int
}

func (n *Network) engineOwned(fn func()) {
	n.shards[n.shardOf[0]].eng.After(0, fn) // want rank-ownership "Engine.After ranks by the engine's own owner"
}

func constKeyStream(seed int64) {
	_ = eventsim.NewStream(seed, 7) // want rank-ownership "NewStream key is a compile-time constant"
}

func (n *Network) pokePeer() {
	n.shards[1].delivered++ // want rank-ownership "cross-shard state write"
}
