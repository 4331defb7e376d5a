package netsim

import (
	"fastflex/internal/eventsim"
)

// Rank-ownership fixture that must not type-check: a rank written as an
// integer instead of minted by a RankOwner.

func mintLiteral(eng *eventsim.Engine, fn func()) {
	eng.ScheduleRank(0, 42, fn)
}
