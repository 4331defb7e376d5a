package topo

// Shards is a partition of a graph for sharded parallel simulation. Every
// node belongs to exactly one shard; hosts always share their edge switch's
// shard so host-switch links never cross a shard boundary. The links that
// do cross carry the conservative lookahead: a parallel run may only open
// simulation windows as wide as MinCutDelayNS, so the partitioner pushes
// short links inside shards and leaves long (wide-lookahead) links on the
// cut.
type Shards struct {
	// K is the number of shards actually produced (clamped to the switch
	// count, so it may be smaller than requested).
	K int
	// Of maps NodeID -> shard index.
	Of []int
	// CutLinks lists every directed link whose endpoints are in different
	// shards, in link-ID order.
	CutLinks []LinkID
	// MinCutDelayNS is the smallest propagation delay over CutLinks — the
	// conservative lookahead window. Zero when no links cross (K == 1 or
	// fully disconnected shards).
	MinCutDelayNS int64
}

// Partition splits g into k shards with a deterministic greedy heuristic:
// seed switches are spread by farthest-point sampling on delay-weighted
// distance, then regions grow by repeatedly letting the smallest shard
// absorb its cheapest frontier link. Growing over cheap links first keeps
// low-delay links internal, which maximizes the minimum cut delay — the
// quantity that bounds parallel window width. The result depends only on
// the graph (no RNG), so it is identical across runs and machines.
func Partition(g *Graph, k int) *Shards {
	sw := g.Switches()
	if k < 1 {
		k = 1
	}
	if k > len(sw) {
		k = len(sw)
	}
	of := make([]int, len(g.Nodes))
	for i := range of {
		of[i] = -1
	}
	s := &Shards{K: k, Of: of}
	if len(sw) == 0 {
		for i := range of {
			of[i] = 0
		}
		s.K = 1
		return s
	}

	seeds := chooseSeeds(g, sw, k)
	counts := make([]int, k)
	for i, sd := range seeds {
		of[sd] = i
		counts[i]++
	}

	// Greedy region growth. Each round the smallest shard (ties to the
	// lowest index) claims the unassigned switch behind its cheapest
	// frontier link (ties to the lowest link ID). O(rounds × E) scans —
	// fine at the few-hundred-switch scale this simulator targets, and
	// trivially deterministic.
	for {
		bestShard, bestLink := -1, LinkID(-1)
		var bestDelay int64
		for _, l := range g.Links {
			if g.Nodes[l.From].Kind != Switch || g.Nodes[l.To].Kind != Switch {
				continue
			}
			sh := of[l.From]
			if sh < 0 || of[l.To] >= 0 {
				continue
			}
			better := bestShard < 0 ||
				counts[sh] < counts[bestShard] ||
				(counts[sh] == counts[bestShard] && (sh < bestShard ||
					(sh == bestShard && (l.DelayNS < bestDelay ||
						(l.DelayNS == bestDelay && l.ID < bestLink)))))
			if better {
				bestShard, bestLink, bestDelay = sh, l.ID, l.DelayNS
			}
		}
		if bestShard < 0 {
			break
		}
		of[g.Links[bestLink].To] = bestShard
		counts[bestShard]++
	}

	// Switches unreachable from any seed (disconnected components): round-
	// robin them onto the smallest shards in ID order.
	for _, n := range sw {
		if of[n] >= 0 {
			continue
		}
		smallest := 0
		for i := 1; i < k; i++ {
			if counts[i] < counts[smallest] {
				smallest = i
			}
		}
		of[n] = smallest
		counts[smallest]++
	}

	// Hosts follow their edge switch so access links stay intra-shard.
	for _, h := range g.Hosts() {
		if edge := g.HostEdgeSwitch(h); edge >= 0 {
			of[h] = of[edge]
		} else {
			of[h] = 0
		}
	}

	for _, l := range g.Links {
		if of[l.From] != of[l.To] {
			s.CutLinks = append(s.CutLinks, l.ID)
			if s.MinCutDelayNS == 0 || l.DelayNS < s.MinCutDelayNS {
				s.MinCutDelayNS = l.DelayNS
			}
		}
	}
	return s
}

// chooseSeeds picks the k growth seeds, honoring the graph's partition
// hints when present. With at most k hints every hinted region gets its own
// seed before farthest-point sampling fills the remainder; with more hints
// than shards, farthest-point sampling restricted to the hint set keeps the
// chosen subset maximally spread. Hints that are not switches are ignored.
func chooseSeeds(g *Graph, sw []NodeID, k int) []NodeID {
	var hints []NodeID
	for _, h := range g.PartitionHints {
		if int(h) < len(g.Nodes) && g.Nodes[h].Kind == Switch {
			hints = append(hints, h)
		}
	}
	if len(hints) == 0 {
		return spreadSeeds(g, sw, k, nil)
	}
	if len(hints) <= k {
		// One seed per hinted region, then spread the rest over all
		// switches (covers graphs with more shards than regions).
		return spreadSeeds(g, sw, k, hints)
	}
	// More regions than shards: spread-sample the hints themselves so the
	// k chosen regions are mutually far apart.
	return spreadSeeds(g, hints, k, hints[:1])
}

// spreadSeeds picks k switches from pool by farthest-point sampling on
// delay-weighted shortest-path distance, starting from the given initial
// seeds (the lowest-ID pool switch when none): each subsequent seed
// maximizes its distance to the nearest existing seed (ties to the lowest
// ID). Unreachable switches sort as infinitely far, so disconnected
// components get seeds before any connected region is split.
func spreadSeeds(g *Graph, pool []NodeID, k int, initial []NodeID) []NodeID {
	if len(initial) == 0 {
		initial = pool[:1]
	}
	if len(initial) > k {
		initial = initial[:k]
	}
	seeds := append([]NodeID(nil), initial...)
	minDist := delayDistances(g, seeds[0])
	for _, sd := range seeds[1:] {
		for n, d := range delayDistances(g, sd) {
			if d < minDist[n] {
				minDist[n] = d
			}
		}
	}
	sw := pool
	for len(seeds) < k {
		best, bestD := NodeID(-1), int64(-1)
		for _, n := range sw {
			taken := false
			for _, sd := range seeds {
				if sd == n {
					taken = true
					break
				}
			}
			if taken {
				continue
			}
			if minDist[n] > bestD {
				best, bestD = n, minDist[n]
			}
		}
		seeds = append(seeds, best)
		for n, d := range delayDistances(g, best) {
			if d < minDist[n] {
				minDist[n] = d
			}
		}
	}
	return seeds
}

// delayDistances returns delay-weighted shortest-path distances from src
// over switch-to-switch links (linear-scan Dijkstra, deterministic).
// Unreachable nodes get a large sentinel.
func delayDistances(g *Graph, src NodeID) []int64 {
	const inf = int64(1) << 62
	dist := make([]int64, len(g.Nodes))
	done := make([]bool, len(g.Nodes))
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for {
		best, bd := NodeID(-1), inf
		for i, d := range dist {
			if !done[i] && d < bd {
				best, bd = NodeID(i), d
			}
		}
		if best < 0 {
			break
		}
		done[best] = true
		for _, lid := range g.Out(best) {
			l := g.Links[lid]
			if g.Nodes[l.To].Kind != Switch {
				continue
			}
			w := l.DelayNS
			if w < 1 {
				w = 1
			}
			if nd := dist[best] + w; nd < dist[l.To] {
				dist[l.To] = nd
			}
		}
	}
	return dist
}

// Refine returns the partition a sharded run with the given number of worker
// goroutines executes. Workers are not partitions: cutting the graph finer
// than the worker count lets the runtime balance uneven regions by handing
// the heaviest parts out first, so Refine picks the finest partition that
// costs no lookahead — the largest p in (workers, 4·workers] for which
// Partition yields p parts whose minimum cut delay is not below the
// workers-way partition's. When no finer cut keeps the lookahead, or with
// one worker (nothing to balance), it is Partition(g, workers) itself.
func Refine(g *Graph, workers int) *Shards {
	base := Partition(g, workers)
	if workers <= 1 {
		return base
	}
	for p := 4 * workers; p > workers; p-- {
		if s := Partition(g, p); s.K == p && s.lookahead() >= base.lookahead() {
			return s
		}
	}
	return base
}

// lookahead is MinCutDelayNS with "no link crosses" read as unbounded, so
// partitions compare by how wide a conservative window they allow.
func (s *Shards) lookahead() int64 {
	if len(s.CutLinks) == 0 {
		return 1<<63 - 1
	}
	return s.MinCutDelayNS
}
