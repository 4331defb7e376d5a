package topo

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAddDuplexReverse(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Switch, "a")
	b := g.AddNode(Switch, "b")
	f := g.AddDuplex(a, b, 1e6, 1000)
	r := g.Links[f].Reverse
	if r < 0 {
		t.Fatal("forward link has no reverse")
	}
	if g.Links[r].From != b || g.Links[r].To != a {
		t.Fatalf("reverse link endpoints wrong: %+v", g.Links[r])
	}
	if g.Links[r].Reverse != f {
		t.Fatal("reverse of reverse is not forward")
	}
}

func TestLinkBetween(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Switch, "a")
	b := g.AddNode(Switch, "b")
	c := g.AddNode(Switch, "c")
	g.AddDuplex(a, b, 1e6, 1000)
	if g.LinkBetween(a, b) < 0 {
		t.Fatal("missing a→b")
	}
	if g.LinkBetween(a, c) != -1 {
		t.Fatal("found nonexistent a→c")
	}
}

func TestShortestPathLinear(t *testing.T) {
	g := NewLinear(5)
	p, ok := g.ShortestPath(0, 4, nil)
	if !ok {
		t.Fatal("no path on a chain")
	}
	if len(p.Links) != 4 {
		t.Fatalf("path length %d, want 4", len(p.Links))
	}
	nodes := p.Nodes(g)
	for i, n := range nodes {
		if n != NodeID(i) {
			t.Fatalf("path nodes %v, want 0..4 in order", nodes)
		}
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Switch, "a")
	b := g.AddNode(Switch, "b")
	if _, ok := g.ShortestPath(a, b, nil); ok {
		t.Fatal("found path between disconnected nodes")
	}
}

func TestShortestPathBanned(t *testing.T) {
	f := NewFigure2()
	g := f.G
	p, _ := g.ShortestPath(f.CoreA, f.VictimEdge, nil)
	if len(p.Links) != 1 || p.Links[0] != f.CriticalLinkA {
		t.Fatalf("unbanned shortest path should be the critical link, got %v", p.Links)
	}
	banned := map[LinkID]bool{f.CriticalLinkA: true}
	p2, ok := g.ShortestPath(f.CoreA, f.VictimEdge, banned)
	if !ok {
		t.Fatal("no detour found when critical link banned")
	}
	if p2.Contains(f.CriticalLinkA) {
		t.Fatal("banned link used")
	}
	if len(p2.Links) <= 1 {
		t.Fatalf("detour should be longer, got %d links", len(p2.Links))
	}
}

func TestHostsDoNotForwardTransit(t *testing.T) {
	// a — h — b where h is a host: no path a→b may exist through h.
	g := NewGraph()
	a := g.AddNode(Switch, "a")
	b := g.AddNode(Switch, "b")
	h := g.AddNode(Host, "h")
	g.AddDuplex(a, h, 1e6, 1000)
	g.AddDuplex(h, b, 1e6, 1000)
	if _, ok := g.ShortestPath(a, b, nil); ok {
		t.Fatal("path routed transit traffic through a host")
	}
	// But the host itself can originate.
	if _, ok := g.ShortestPath(h, b, nil); !ok {
		t.Fatal("host cannot reach its neighbor")
	}
}

// detour returns the cheapest src→dst path that shares no link with p.
func detour(g *Graph, src, dst NodeID, p Path) (Path, bool) {
	banned := make(map[LinkID]bool, len(p.Links))
	for _, lid := range p.Links {
		banned[lid] = true
	}
	return g.ShortestPath(src, dst, banned)
}

func TestFigure2Shape(t *testing.T) {
	f := NewFigure2()
	if !f.G.Connected() {
		t.Fatal("figure-2 topology not connected")
	}
	if got := len(f.G.Switches()); got != 9 {
		t.Fatalf("switches = %d, want 9 (4 ingress + 2 core + victim edge + 2 detour)", got)
	}
	if len(f.Ingresses) != 4 {
		t.Fatalf("ingresses = %d, want 4", len(f.Ingresses))
	}
	la := f.G.Links[f.CriticalLinkA]
	if la.From != f.CoreA || la.To != f.VictimEdge {
		t.Fatalf("critical link A endpoints wrong: %+v", la)
	}
}

func TestFigure2CriticalLinksAreCritical(t *testing.T) {
	f := NewFigure2()
	f.AttachUsers(4)
	f.AttachBots(4)
	servers := f.AttachServers(2)
	// Count, per switch-to-switch link, the host-to-server shortest paths
	// that cross it. Under single shortest paths all victim traffic
	// converges on one critical link, so a designed critical link must
	// carry the most (the balanced TE used in experiments spreads traffic
	// over both).
	count := make(map[LinkID]int)
	for _, h := range f.G.Hosts() {
		for _, srv := range servers {
			p, ok := f.G.ShortestPath(h, srv, nil)
			if !ok {
				continue
			}
			for _, lid := range p.Links {
				l := f.G.Links[lid]
				if f.G.Nodes[l.From].Kind == Switch && f.G.Nodes[l.To].Kind == Switch {
					count[lid]++
				}
			}
		}
	}
	top := max(count[f.CriticalLinkA], count[f.CriticalLinkB])
	if top == 0 {
		t.Fatal("no host-to-server shortest path crosses a designed critical link")
	}
	for lid, c := range count {
		if c > top {
			t.Fatalf("link %d carries %d shortest paths, more than either designed critical link (%d, %d: %d)",
				lid, c, f.CriticalLinkA, f.CriticalLinkB, top)
		}
	}
}

func TestAttachHostsRoles(t *testing.T) {
	f := NewFigure2()
	users := f.AttachUsers(3)
	if len(users) != 3 {
		t.Fatalf("users = %d", len(users))
	}
	for _, u := range users {
		if f.G.Nodes[u].Kind != Host {
			t.Fatal("user is not a host")
		}
		sw := f.G.HostEdgeSwitch(u)
		isIngress := false
		for _, in := range f.Ingresses {
			if sw == in {
				isIngress = true
			}
		}
		if !isIngress {
			t.Fatalf("user attached to %d, want an ingress switch", sw)
		}
	}
	if f.G.HostEdgeSwitch(f.CoreA) != -1 {
		t.Fatal("HostEdgeSwitch on a switch should be -1")
	}
}

func TestFatTreeShape(t *testing.T) {
	ft := NewFatTree(4)
	if len(ft.Core) != 4 {
		t.Fatalf("core = %d, want 4", len(ft.Core))
	}
	if len(ft.Aggs) != 8 || len(ft.Edges) != 8 {
		t.Fatalf("aggs=%d edges=%d, want 8/8", len(ft.Aggs), len(ft.Edges))
	}
	if !ft.G.Connected() {
		t.Fatal("fat-tree not connected")
	}
	// Inter-pod paths must exist and there must be ≥ 2 distinct ones
	// (multipath is what Hula-style rerouting exploits).
	p, ok := ft.G.ShortestPath(ft.Edges[0], ft.Edges[7], nil)
	if !ok {
		t.Fatal("fat-tree inter-pod path missing")
	}
	if _, ok := detour(ft.G, ft.Edges[0], ft.Edges[7], p); !ok {
		t.Fatal("fat-tree inter-pod multipath missing: no link-disjoint second path")
	}
}

func TestFatTreeOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd k did not panic")
		}
	}()
	NewFatTree(3)
}

func TestRingHasTwoPaths(t *testing.T) {
	g := NewRing(6)
	p, ok := g.ShortestPath(0, 3, nil)
	if !ok || len(p.Links) != 3 {
		t.Fatalf("ring 0→3 shortest path = %v (ok=%v), want 3 hops", p.Links, ok)
	}
	q, ok := detour(g, 0, 3, p)
	if !ok || len(q.Links) != 3 {
		t.Fatalf("ring 0→3 second path = %v (ok=%v), want 3 hops the other way", q.Links, ok)
	}
	both := Path{Links: append(append([]LinkID(nil), p.Links...), q.Links...)}
	if r, ok := detour(g, 0, 3, both); ok {
		t.Fatalf("ring 0→3 has a third link-disjoint path %v", r.Links)
	}
}

func TestWaxmanConnectedDeterministic(t *testing.T) {
	g1 := NewWaxman(20, 0.8, 0.5, rand.New(rand.NewSource(7)))
	g2 := NewWaxman(20, 0.8, 0.5, rand.New(rand.NewSource(7)))
	if !g1.Connected() {
		t.Fatal("waxman graph not connected")
	}
	if len(g1.Links) != len(g2.Links) {
		t.Fatal("same seed produced different Waxman graphs")
	}
}

func TestDiameter(t *testing.T) {
	if d := NewLinear(5).Diameter(); d != 4 {
		t.Fatalf("linear-5 diameter = %d, want 4", d)
	}
	if d := NewRing(6).Diameter(); d != 3 {
		t.Fatalf("ring-6 diameter = %d, want 3", d)
	}
}

// Property: on random connected Waxman graphs, ShortestPath returns a valid
// contiguous walk from src to dst.
func TestQuickShortestPathValid(t *testing.T) {
	f := func(seed int64, srcRaw, dstRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewWaxman(12, 0.9, 0.6, rng)
		src := NodeID(int(srcRaw) % 12)
		dst := NodeID(int(dstRaw) % 12)
		if src == dst {
			return true
		}
		p, ok := g.ShortestPath(src, dst, nil)
		if !ok {
			return false // connected graph: must find a path
		}
		nodes := p.Nodes(g)
		if nodes[0] != src || nodes[len(nodes)-1] != dst {
			return false
		}
		for i, lid := range p.Links {
			if g.Links[lid].From != nodes[i] || g.Links[lid].To != nodes[i+1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPathCostWeights(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(Switch, "a")
	b := g.AddNode(Switch, "b")
	c := g.AddNode(Switch, "c")
	l1 := g.AddLink(a, b, 1e6, 1000)
	l2 := g.AddLink(b, c, 1e6, 1000)
	g.Links[l2].Weight = 2.5
	p := Path{Links: []LinkID{l1, l2}}
	if got := p.Cost(g); got != 3.5 {
		t.Fatalf("cost = %v, want 3.5 (1 default + 2.5)", got)
	}
}

func TestWeightedShortestPathPrefersCheapDetour(t *testing.T) {
	// a→b direct weight 10; a→c→b weight 1+1.
	g := NewGraph()
	a := g.AddNode(Switch, "a")
	b := g.AddNode(Switch, "b")
	c := g.AddNode(Switch, "c")
	direct := g.AddLink(a, b, 1e6, 1000)
	g.Links[direct].Weight = 10
	g.AddLink(a, c, 1e6, 1000)
	g.AddLink(c, b, 1e6, 1000)
	p, _ := g.ShortestPath(a, b, nil)
	if p.Contains(direct) {
		t.Fatal("took the expensive direct link")
	}
}

// TestShortestPathTreeMatchesPairwise pins the split of ShortestPath into
// "tree from src" + "path to dst": on every (src, dst) pair the full tree
// yields link for link the path the early-exit pairwise search finds, with
// and without banned links, including unreachable and src == dst pairs.
func TestShortestPathTreeMatchesPairwise(t *testing.T) {
	fig2 := NewFigure2()
	fig2.AttachUsers(4)
	fig2.AttachServers(2)
	isp := NewMultiRegion(4, 10)
	isp.AttachUsers(8)
	isp.AttachServers(2)
	for name, g := range map[string]*Graph{
		"figure2":     fig2.G,
		"multiregion": isp.Graph(),
		"planet":      NewPlanetScale(6, 4).Graph(),
	} {
		bans := []map[LinkID]bool{nil, {0: true, LinkID(len(g.Links) / 2): true}}
		for _, banned := range bans {
			for src := range g.Nodes {
				tree := g.ShortestPathTree(NodeID(src), banned)
				for dst := range g.Nodes {
					want, wok := g.ShortestPath(NodeID(src), NodeID(dst), banned)
					got, gok := tree.PathTo(NodeID(dst))
					if wok != gok || !reflect.DeepEqual(want.Links, got.Links) {
						t.Fatalf("%s %d->%d (banned %v): tree path %v,%v, pairwise %v,%v",
							name, src, dst, banned, got.Links, gok, want.Links, wok)
					}
				}
			}
		}
	}
}
