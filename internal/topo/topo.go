package topo

import (
	"fmt"
)

// NodeID identifies a node (switch or host) in a topology. IDs are dense
// indices assigned in creation order so they can index slices directly.
type NodeID int

// NodeKind distinguishes forwarding elements from traffic endpoints.
type NodeKind uint8

const (
	// Switch nodes run dataplane programs and forward traffic.
	Switch NodeKind = iota
	// Host nodes originate and sink traffic; they never forward.
	Host
)

func (k NodeKind) String() string {
	if k == Switch {
		return "switch"
	}
	return "host"
}

// Node is a vertex in the topology.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string
}

// LinkID identifies a directed link. Every physical link is represented as
// two directed links; Reverse maps between them.
type LinkID int

// Link is a directed edge with transmission capacity and propagation delay.
// BitsPerSec and DelayNS parameterize the netsim queueing model; Weight is
// the routing metric (defaults to 1 per hop when zero).
type Link struct {
	ID         LinkID
	From, To   NodeID
	BitsPerSec float64
	DelayNS    int64
	Weight     float64
	Reverse    LinkID
}

// Graph is a directed multigraph of nodes and links. The zero value is an
// empty graph ready to use.
type Graph struct {
	Nodes []Node
	Links []Link
	// Adjacency is dense, indexed by NodeID (IDs are allocated
	// sequentially by AddNode): Out sits on the per-hop forwarding path,
	// where a slice index beats a map probe.
	out [][]LinkID
	in  [][]LinkID

	// PartitionHints optionally names one switch per natural region of the
	// topology. Builders that know their region structure (NewPlanetScale)
	// set it so Partition seeds one shard inside each region before the
	// greedy growth pass — farthest-point sampling alone lands multiple
	// seeds in one oversized region when region sizes are heavily skewed,
	// and the greedy pass then splits regions across short intra-region
	// links, collapsing the cut delay. Empty means pure farthest-point
	// seeding (the previous behavior, byte-identical partitions).
	PartitionHints []NodeID
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{}
}

// ensureAdj grows the adjacency tables to cover node id.
func (g *Graph) ensureAdj(id NodeID) {
	for int(id) >= len(g.out) {
		g.out = append(g.out, nil)
		g.in = append(g.in, nil)
	}
}

// AddNode appends a node of the given kind and returns its ID.
func (g *Graph) AddNode(kind NodeKind, name string) NodeID {
	id := NodeID(len(g.Nodes))
	if name == "" {
		name = fmt.Sprintf("%s%d", kind, id)
	}
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Name: name})
	return id
}

// AddLink adds a single directed link and returns its ID. Most callers want
// AddDuplex. Weight zero is treated as 1 by the path algorithms.
func (g *Graph) AddLink(from, to NodeID, bps float64, delayNS int64) LinkID {
	id := LinkID(len(g.Links))
	g.Links = append(g.Links, Link{ID: id, From: from, To: to, BitsPerSec: bps, DelayNS: delayNS, Reverse: -1})
	if from > to {
		g.ensureAdj(from)
	} else {
		g.ensureAdj(to)
	}
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// AddDuplex adds a bidirectional link as two directed links that reference
// each other via Reverse. It returns the forward link's ID.
func (g *Graph) AddDuplex(a, b NodeID, bps float64, delayNS int64) LinkID {
	f := g.AddLink(a, b, bps, delayNS)
	r := g.AddLink(b, a, bps, delayNS)
	g.Links[f].Reverse = r
	g.Links[r].Reverse = f
	return f
}

// Out returns the IDs of links leaving n, in ID order (AddLink appends).
func (g *Graph) Out(n NodeID) []LinkID {
	if uint(n) < uint(len(g.out)) {
		return g.out[n]
	}
	return nil
}

// In returns the IDs of links entering n.
func (g *Graph) In(n NodeID) []LinkID {
	if uint(n) < uint(len(g.in)) {
		return g.in[n]
	}
	return nil
}

// LinkBetween returns the first link from a to b, or -1 if none exists.
func (g *Graph) LinkBetween(a, b NodeID) LinkID {
	for _, lid := range g.Out(a) {
		if g.Links[lid].To == b {
			return lid
		}
	}
	return -1
}

// Switches returns the IDs of all switch nodes in ID order.
func (g *Graph) Switches() []NodeID { return g.kind(Switch) }

// Hosts returns the IDs of all host nodes in ID order.
func (g *Graph) Hosts() []NodeID { return g.kind(Host) }

func (g *Graph) kind(k NodeKind) []NodeID {
	var ids []NodeID
	for _, n := range g.Nodes {
		if n.Kind == k {
			ids = append(ids, n.ID)
		}
	}
	return ids
}

// Neighbors returns the distinct nodes reachable over one outgoing link.
func (g *Graph) Neighbors(n NodeID) []NodeID {
	seen := make(map[NodeID]bool)
	var out []NodeID
	for _, lid := range g.Out(n) {
		to := g.Links[lid].To
		if !seen[to] {
			seen[to] = true
			out = append(out, to)
		}
	}
	return out
}

// AttachHost creates a host, connects it to sw with a duplex link, and
// returns the host's ID.
func (g *Graph) AttachHost(sw NodeID, name string, bps float64, delayNS int64) NodeID {
	h := g.AddNode(Host, name)
	g.AddDuplex(h, sw, bps, delayNS)
	return h
}

// HostEdgeSwitch returns the switch a host is attached to, or -1 if the node
// is not a host or is unattached.
func (g *Graph) HostEdgeSwitch(h NodeID) NodeID {
	if int(h) >= len(g.Nodes) || g.Nodes[h].Kind != Host {
		return -1
	}
	for _, lid := range g.Out(h) {
		to := g.Links[lid].To
		if g.Nodes[to].Kind == Switch {
			return to
		}
	}
	return -1
}

func (g *Graph) weight(l Link) float64 {
	if l.Weight > 0 {
		return l.Weight
	}
	return 1
}

// Path is a sequence of directed link IDs forming a contiguous walk.
type Path struct {
	Links []LinkID
}

// Nodes expands a path into the node sequence it traverses, starting from
// the first link's source. An empty path yields nil.
func (p Path) Nodes(g *Graph) []NodeID {
	if len(p.Links) == 0 {
		return nil
	}
	nodes := []NodeID{g.Links[p.Links[0]].From}
	for _, lid := range p.Links {
		nodes = append(nodes, g.Links[lid].To)
	}
	return nodes
}

// Cost returns the sum of routing weights along the path.
func (p Path) Cost(g *Graph) float64 {
	var c float64
	for _, lid := range p.Links {
		c += g.weight(g.Links[lid])
	}
	return c
}

// Contains reports whether the path traverses the given link.
func (p Path) Contains(lid LinkID) bool {
	for _, l := range p.Links {
		if l == lid {
			return true
		}
	}
	return false
}

// ShortestPath returns a minimum-weight path from src to dst using Dijkstra,
// with deterministic tie-breaking by link ID. ok is false if dst is
// unreachable. banned links (may be nil) are excluded, which is how fast
// reroute and attack-aware TE avoid failed or congested links.
func (g *Graph) ShortestPath(src, dst NodeID, banned map[LinkID]bool) (Path, bool) {
	return g.pathTree(src, dst, banned).PathTo(dst)
}

// PathTree is the shortest-path tree out of one source: the final
// predecessor link of every node Dijkstra settled. Callers that need paths
// from one source to many destinations build the tree once and read each
// path out of it, instead of paying one Dijkstra per pair.
type PathTree struct {
	g    *Graph
	src  NodeID
	prev []LinkID
}

// ShortestPathTree runs Dijkstra from src over the whole graph. Every
// PathTo(dst) equals ShortestPath(src, dst, banned) link for link: weights
// are positive, so a node's predecessor is final once the node is settled,
// and stopping early at one destination never changes a path.
func (g *Graph) ShortestPathTree(src NodeID, banned map[LinkID]bool) *PathTree {
	return g.pathTree(src, -1, banned)
}

// pathTree is Dijkstra from src, stopping once stop is settled (-1: never).
func (g *Graph) pathTree(src, stop NodeID, banned map[LinkID]bool) *PathTree {
	const inf = 1e18
	dist := make([]float64, len(g.Nodes))
	prev := make([]LinkID, len(g.Nodes))
	done := make([]bool, len(g.Nodes))
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[src] = 0
	for {
		// Linear-scan extract-min: topologies here are small (≤ a few
		// hundred nodes), and determinism matters more than asymptotics.
		best := NodeID(-1)
		bd := inf
		for i, d := range dist {
			if !done[i] && d < bd {
				bd, best = d, NodeID(i)
			}
		}
		if best == -1 {
			break
		}
		done[best] = true
		if best == stop {
			break
		}
		// Hosts never forward transit traffic.
		if g.Nodes[best].Kind == Host && best != src {
			continue
		}
		for _, lid := range g.Out(best) {
			if banned[lid] {
				continue
			}
			l := g.Links[lid]
			nd := dist[best] + g.weight(l)
			if nd < dist[l.To] || (nd == dist[l.To] && prev[l.To] >= 0 && lid < prev[l.To]) {
				dist[l.To] = nd
				prev[l.To] = lid
			}
		}
	}
	return &PathTree{g: g, src: src, prev: prev}
}

// PathTo returns the tree's path from its source to dst; ok is false if dst
// is unreachable.
func (t *PathTree) PathTo(dst NodeID) (Path, bool) {
	if t.prev[dst] == -1 && t.src != dst {
		return Path{}, false
	}
	n := 0
	for at := dst; at != t.src; at = t.g.Links[t.prev[at]].From {
		n++
	}
	links := make([]LinkID, n)
	for at := dst; at != t.src; at = t.g.Links[t.prev[at]].From {
		n--
		links[n] = t.prev[at]
	}
	return Path{Links: links}, true
}

// Diameter returns the maximum finite hop-count shortest-path length between
// switch pairs. Mode-change latency ablations sweep this.
func (g *Graph) Diameter() int {
	max := 0
	for _, a := range g.Switches() {
		for _, b := range g.Switches() {
			if a == b {
				continue
			}
			if p, ok := g.ShortestPath(a, b, nil); ok && len(p.Links) > max {
				max = len(p.Links)
			}
		}
	}
	return max
}

// Connected reports whether every node can reach every other node.
func (g *Graph) Connected() bool {
	if len(g.Nodes) == 0 {
		return true
	}
	seen := make([]bool, len(g.Nodes))
	stack := []NodeID{0}
	seen[0] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, lid := range g.Out(n) {
			to := g.Links[lid].To
			if !seen[to] {
				seen[to] = true
				stack = append(stack, to)
			}
		}
	}
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}
