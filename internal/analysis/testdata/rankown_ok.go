package netsim

import (
	"fastflex/internal/eventsim"
)

// Rank-ownership fixture, negative cases: ranks travel from a
// RankOwner.Next() draw directly, through a local, or through a struct
// field written in another function (the handoff pattern); the stream key
// derives from an entity identity; and shard writes happen either in the
// allowlisted barrier function or through the shard-ownership map.
// Nothing here may be flagged.

type shardState struct {
	eng *eventsim.Engine
	out []int
}

type Network struct {
	shards  []*shardState
	shardOf []int
	rank    eventsim.RankOwner
}

type handoff struct {
	rank eventsim.Rank
}

func (n *Network) direct(fn func()) {
	n.shards[n.shardOf[3]].eng.ScheduleRank(0, n.rank.Next(), fn)
}

func (n *Network) viaLocal(fn func()) {
	r := n.rank.Next()
	n.shards[n.shardOf[0]].eng.AfterRank(0, r, fn)
}

func (n *Network) mint() handoff {
	return handoff{rank: n.rank.Next()}
}

func (n *Network) viaField(h handoff, fn func()) {
	n.shards[n.shardOf[1]].eng.ScheduleRank(0, h.rank, fn)
}

func entityStream(seed int64, id uint64) {
	_ = eventsim.NewStream(seed, id<<32)
}

func (n *Network) exchange() {
	n.shards[0].out = n.shards[0].out[:0] // allowlisted barrier function
}

func (n *Network) ownerWrite(id int) {
	n.shards[n.shardOf[id]].out = nil // owner-resolved through shardOf
}
