package dataplane

import "sync/atomic"

// Regression fixture for the old file-whitelist brittleness: this file
// is named shard.go AND declares (*ShardGroup).start and .claim with the
// exact identities the eventsim exemption names — but it lives in
// internal/dataplane, and exemptions key on package path + function
// identity, so neither the filename nor the method names buy it goroutine
// permission.

type ShardGroup struct {
	helpers []chan int
	next    atomic.Int64
}

func (g *ShardGroup) start() {
	for _, ch := range g.helpers {
		ch := ch
		go func() { // want determinism "goroutine launch below the concurrency boundary"
			for range ch {
				g.claim()
			}
		}()
	}
}

func (g *ShardGroup) claim() {
	g.next.Add(1)
}
