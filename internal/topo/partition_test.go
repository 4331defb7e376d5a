package topo

import (
	"reflect"
	"testing"
)

func TestPartitionEveryNodeExactlyOnce(t *testing.T) {
	m := NewMultiRegion(3, 6)
	m.AttachUsers(8)
	m.AttachBots(16)
	m.AttachServers(4)
	g := m.Graph()
	for _, k := range []int{1, 2, 4, 7} {
		s := Partition(g, k)
		if len(s.Of) != len(g.Nodes) {
			t.Fatalf("k=%d: Of covers %d nodes, graph has %d", k, len(s.Of), len(g.Nodes))
		}
		for n, sh := range s.Of {
			if sh < 0 || sh >= s.K {
				t.Fatalf("k=%d: node %d in shard %d, want [0,%d)", k, n, sh, s.K)
			}
		}
		// Hosts must share their edge switch's shard: host-switch links
		// never cross, so access-link delay never shrinks the lookahead.
		for _, h := range g.Hosts() {
			if edge := g.HostEdgeSwitch(h); edge >= 0 && s.Of[h] != s.Of[edge] {
				t.Fatalf("k=%d: host %d in shard %d but edge switch %d in shard %d",
					k, h, s.Of[h], edge, s.Of[edge])
			}
		}
	}
}

func TestPartitionCutWeight(t *testing.T) {
	// With one shard per region, every cut link should be a 5 ms backbone
	// link: the greedy growth keeps the cheap intra-region links internal.
	m := NewMultiRegion(3, 6)
	g := m.Graph()
	s := Partition(g, 4)
	if s.K != 4 {
		t.Fatalf("K = %d, want 4", s.K)
	}
	if len(s.CutLinks) == 0 {
		t.Fatal("4-way partition of a connected graph must cut some links")
	}
	if s.MinCutDelayNS != BackboneDelay {
		t.Fatalf("MinCutDelayNS = %d, want backbone delay %d", s.MinCutDelayNS, BackboneDelay)
	}
	for _, lid := range s.CutLinks {
		l := g.Links[lid]
		if s.Of[l.From] == s.Of[l.To] {
			t.Fatalf("link %d listed as cut but both ends in shard %d", lid, s.Of[l.From])
		}
		if l.DelayNS < BackboneDelay {
			t.Fatalf("cut link %d has delay %d ns; only backbone links should be cut", lid, l.DelayNS)
		}
	}
	// Each region (plus the victim area) should be its own shard: switches
	// in the same ring always land together.
	for r, ring := range m.Regions {
		for _, sw := range ring[1:] {
			if s.Of[sw] != s.Of[ring[0]] {
				t.Fatalf("region %d split across shards %d and %d", r, s.Of[ring[0]], s.Of[sw])
			}
		}
	}
}

func TestPartitionKLargerThanSwitches(t *testing.T) {
	g := NewLinear(3)
	s := Partition(g, 10)
	if s.K != 3 {
		t.Fatalf("K = %d, want clamp to 3 switches", s.K)
	}
	for n, sh := range s.Of {
		if sh < 0 || sh >= 3 {
			t.Fatalf("node %d in shard %d after clamping", n, sh)
		}
	}
	// Degenerate inputs.
	if s := Partition(NewGraph(), 4); s.K != 1 {
		t.Fatalf("empty graph K = %d, want 1", s.K)
	}
	if s := Partition(NewLinear(5), 0); s.K != 1 || len(s.CutLinks) != 0 {
		t.Fatalf("k=0 should degrade to one shard with no cuts, got K=%d cuts=%d", s.K, len(s.CutLinks))
	}
}

func TestPartitionDeterministic(t *testing.T) {
	build := func() *Shards {
		m := NewMultiRegion(3, 6)
		m.AttachUsers(8)
		m.AttachBots(16)
		m.AttachServers(4)
		return Partition(m.Graph(), 4)
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Partition is not deterministic across identical builds")
	}
}

func TestPartitionDisconnected(t *testing.T) {
	// Two disconnected chains: farthest-point seeding must put a seed in
	// each component and every switch must still get a shard.
	g := NewLinear(4)
	a := g.AddNode(Switch, "islandA")
	b := g.AddNode(Switch, "islandB")
	g.AddDuplex(a, b, DefaultLinkBPS, DefaultLinkDelay)
	s := Partition(g, 2)
	for n, sh := range s.Of {
		if sh < 0 {
			t.Fatalf("node %d unassigned", n)
		}
	}
	if s.Of[a] != s.Of[b] {
		t.Fatal("connected island pair split across shards")
	}
	if s.Of[0] == s.Of[a] {
		t.Fatal("disconnected components should land in different shards when k=2")
	}
	// Disconnected shards share no links: lookahead is unbounded (0).
	if len(s.CutLinks) != 0 || s.MinCutDelayNS != 0 {
		t.Fatalf("disconnected partition should have no cut links, got %d (min delay %d)",
			len(s.CutLinks), s.MinCutDelayNS)
	}
}

func TestMultiRegionShape(t *testing.T) {
	m := NewMultiRegion(3, 6)
	g := m.Graph()
	if !g.Connected() {
		t.Fatal("multi-region topology must be connected")
	}
	if len(m.Ingresses) != 3*4 {
		t.Fatalf("ingresses = %d, want 12 (ring size 6 minus 2 gateways × 3 regions)", len(m.Ingresses))
	}
	// Every remote ingress must reach the victim edge.
	for _, in := range m.Ingresses {
		if _, ok := g.ShortestPath(in, m.Victim.VictimEdge, nil); !ok {
			t.Fatalf("ingress %d cannot reach victim edge", in)
		}
	}
}

// TestPartitionPlanetScaleHints: on the skewed planet-scale topology the
// published hints keep every region whole (cuts only on the 5 ms backbone)
// and the shard sizes reasonably balanced despite 4:1 region skew.
func TestPartitionPlanetScaleHints(t *testing.T) {
	m := NewPlanetScale(6, 4) // ring sizes 4,8,16,4,8,16
	g := m.Graph()
	k := len(m.Regions) + 1 // one shard per region plus the victim area
	s := Partition(g, k)
	if s.K != k {
		t.Fatalf("K = %d, want %d", s.K, k)
	}
	if s.MinCutDelayNS != BackboneDelay {
		t.Fatalf("MinCutDelayNS = %d, want backbone delay %d (a region got split)",
			s.MinCutDelayNS, BackboneDelay)
	}
	// Every ring stays in one shard, and distinct rings in distinct shards.
	seen := make(map[int]bool)
	for ri, ring := range m.Regions {
		sh := s.Of[ring[0]]
		for _, n := range ring {
			if s.Of[n] != sh {
				t.Fatalf("region %d split: switch %d in shard %d, ring[0] in %d",
					ri, n, s.Of[n], sh)
			}
		}
		if seen[sh] {
			t.Fatalf("two regions share shard %d", sh)
		}
		seen[sh] = true
	}
	// Balance: the greedy pass cannot fix 4:1 ring skew once regions are
	// atomic, but no shard may exceed the largest-region size bound.
	counts := make([]int, s.K)
	for _, sw := range g.Switches() {
		counts[s.Of[sw]]++
	}
	maxC, minC := counts[0], counts[0]
	for _, c := range counts[1:] {
		if c > maxC {
			maxC = c
		}
		if c < minC {
			minC = c
		}
	}
	if minC == 0 {
		t.Fatal("empty shard")
	}
	if ratio := float64(maxC) / float64(minC); ratio > 4.5 {
		t.Fatalf("switch balance ratio %.2f, want <= 4.5 (counts %v)", ratio, counts)
	}
}

// TestPartitionHintsFewerThanShards: hints seed their regions and
// farthest-point sampling fills the remaining shards.
func TestPartitionHintsFewerThanShards(t *testing.T) {
	m := NewPlanetScale(3, 4)
	g := m.Graph()
	s := Partition(g, 6) // 4 hints (victim + 3 regions), 6 shards
	if s.K != 6 {
		t.Fatalf("K = %d, want 6", s.K)
	}
	counts := make([]int, s.K)
	for _, sw := range g.Switches() {
		counts[s.Of[sw]]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d empty (counts %v)", i, counts)
		}
	}
}

// TestPartitionHintsMoreThanShards: with more hinted regions than shards,
// the sampled hint subset still yields a valid, non-empty partition with
// backbone-only cuts.
func TestPartitionHintsMoreThanShards(t *testing.T) {
	m := NewPlanetScale(6, 4)
	g := m.Graph()
	s := Partition(g, 3)
	if s.K != 3 {
		t.Fatalf("K = %d, want 3", s.K)
	}
	if s.MinCutDelayNS != BackboneDelay {
		t.Fatalf("MinCutDelayNS = %d, want backbone delay %d", s.MinCutDelayNS, BackboneDelay)
	}
}

// TestPartitionSkewWithoutHints documents the failure mode hints exist
// for. A planet-sized region's internal diameter can exceed the backbone
// distance to its neighbors (a 128-switch ring spans 6.4 ms of 0.1 ms hops,
// more than the 5 ms backbone), so farthest-point sampling drops a second
// seed inside it and the cut lands on a ring link — collapsing the sharded
// lookahead 50x. With the builder's hints the same partition keeps every
// cut on the backbone.
func TestPartitionSkewWithoutHints(t *testing.T) {
	m := NewPlanetScale(2, 64) // ring sizes 64 and 128
	g := m.Graph()
	hinted := Partition(g, 3)
	if hinted.MinCutDelayNS != BackboneDelay {
		t.Fatalf("hinted min cut delay = %d, want backbone %d", hinted.MinCutDelayNS, BackboneDelay)
	}
	g.PartitionHints = nil
	unhinted := Partition(g, 3)
	if unhinted.MinCutDelayNS != RegionLinkDelay {
		t.Fatalf("unhinted min cut delay = %d, expected the intra-region cut (%d) hints guard against",
			unhinted.MinCutDelayNS, RegionLinkDelay)
	}
}

// fig3xGraph is the registry's fig3x topology: four remote rings of ten
// switches around the Figure-2 victim region, with its host population.
func fig3xGraph() *Graph {
	m := NewMultiRegion(4, 10)
	m.AttachUsers(16)
	m.AttachBots(96)
	m.AttachServers(8)
	return m.Graph()
}

// TestRefine pins the workers-to-partitions rule: the refined partition is
// finer than the worker count wherever that is free, never at the price of
// lookahead, and degenerates to Partition where it cannot help.
func TestRefine(t *testing.T) {
	graphs := []struct {
		name  string
		g     *Graph
		parts map[int]int // workers -> partitions, where pinned
	}{
		{"fig3x", fig3xGraph(), map[int]int{1: 1, 2: 5, 4: 5}},
		{"planet(6,4)", NewPlanetScale(6, 4).Graph(), map[int]int{1: 1, 2: 7}},
		{"figure2", NewFigure2().G, map[int]int{1: 1}},
		{"linear(3)", NewLinear(3), map[int]int{1: 1, 3: 3, 10: 3}},
		{"empty", NewGraph(), map[int]int{0: 1, 4: 1}},
	}
	for _, tc := range graphs {
		for _, k := range []int{0, 1, 2, 3, 4, 10} {
			base, s := Partition(tc.g, k), Refine(tc.g, k)
			if want, ok := tc.parts[k]; ok && s.K != want {
				t.Errorf("%s: Refine(%d) cut %d partitions, want %d", tc.name, k, s.K, want)
			}
			if s.K < base.K || s.K > 4*max(k, 1) {
				t.Errorf("%s: Refine(%d) cut %d partitions, outside [%d, %d]", tc.name, k, s.K, base.K, 4*max(k, 1))
			}
			if s.lookahead() < base.lookahead() {
				t.Errorf("%s: Refine(%d) lowered the lookahead from %d to %d ns", tc.name, k, base.lookahead(), s.lookahead())
			}
			if k <= 1 && s.K != 1 {
				t.Errorf("%s: one worker must keep one partition, got %d", tc.name, s.K)
			}
			for _, h := range tc.g.Hosts() {
				if edge := tc.g.HostEdgeSwitch(h); edge >= 0 && s.Of[h] != s.Of[edge] {
					t.Errorf("%s: Refine(%d) split host %d from its edge switch %d", tc.name, k, h, edge)
				}
			}
			if again := Refine(tc.g, k); !reflect.DeepEqual(s, again) {
				t.Errorf("%s: Refine(%d) differs between two calls", tc.name, k)
			}
		}
	}
}
