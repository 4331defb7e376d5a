package eventsim

import "sync/atomic"

// Shard-runtime fixture: checked as if it were part of
// internal/eventsim. The concurrency exemption keys on package path +
// function identity — (*ShardGroup).Run/start/stop/runWindow/claim — so
// the helper launch inside start (and the channel loop in the closure it
// spawns, which inherits the exemption from its enclosing function) and
// the atomic claim cursor inside claim produce no diagnostic, while
// unexempt functions in the very same file keep the goroutine ban and,
// once Run reaches them, the atomics ban.

type ShardGroup struct {
	helpers []chan int
	done    chan struct{}
	next    atomic.Int64
	shards  int64
}

func (g *ShardGroup) Run() {
	g.start()
	g.claim()
	_ = g.cursor()
	g.stop()
}

func (g *ShardGroup) start() {
	for _, ch := range g.helpers {
		ch := ch
		go func() { // no diagnostic: exempt shard-runtime function
			for range ch {
				g.claim()
			}
			g.done <- struct{}{}
		}()
	}
}

func (g *ShardGroup) claim() {
	for g.next.Add(1) <= g.shards { // no diagnostic: exempt shard-runtime function
	}
}

func (g *ShardGroup) stop() {
	for _, ch := range g.helpers {
		close(ch) // no diagnostic: exempt shard-runtime function
	}
	<-g.done
}

func (g *ShardGroup) cursor() int64 {
	return g.next.Load() // want determinism "sync/atomic.Int64.Load below the concurrency boundary"
}

func helperElsewhere(done chan struct{}) {
	go close(done) // want determinism "goroutine launch below the concurrency boundary"
}
