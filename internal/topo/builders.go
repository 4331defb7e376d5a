package topo

import (
	"fmt"
	"math"
	"math/rand"
)

// Default link parameters used by the builders. Individual experiments
// override capacities where a scenario needs asymmetry.
const (
	DefaultLinkBPS   = 100e6          // 100 Mbps
	DefaultHostBPS   = 1e9            // hosts are never the bottleneck
	DefaultLinkDelay = int64(1e6)     // 1 ms propagation
	DefaultHostDelay = int64(100e3)   // 0.1 ms host attachment
	DetourLinkBPS    = DefaultLinkBPS // detour capacity equals core capacity
	CriticalLinkBPS  = DefaultLinkBPS // critical links: the attack bottleneck
)

// Figure2 describes the topology from the paper's Figure 2: two ingress
// switches feeding two critical links toward the victim's edge switch, with
// a longer detour region the congestion-aware rerouting booster can shift
// traffic onto.
type Figure2 struct {
	G *Graph

	// Ingresses are the edge switches where user and bot traffic enters
	// (4 of them, each dual-homed to both cores, so a botnet can converge
	// on a critical link without saturating any single ingress).
	Ingresses []NodeID
	// IngressA and IngressB alias the first two ingresses.
	IngressA, IngressB NodeID
	// CoreA and CoreB sit immediately upstream of the two critical links.
	CoreA, CoreB NodeID
	// VictimEdge is the switch the victim destination hangs off.
	VictimEdge NodeID
	// DetourA and DetourB form the longer alternative region.
	DetourA, DetourB NodeID

	// CriticalLinkA and CriticalLinkB are the two links a Crossfire
	// attacker floods (CoreA→VictimEdge, CoreB→VictimEdge).
	CriticalLinkA, CriticalLinkB LinkID
}

// NewFigure2 builds the paper's Figure-2 topology. The two critical links
// are the only short paths to the victim edge; the detour switches provide
// longer paths with equal per-link capacity, so rerouting trades propagation
// delay for queueing delay exactly as §4.2 describes.
func NewFigure2() *Figure2 {
	g := NewGraph()
	f := &Figure2{G: g}
	for i := 0; i < 4; i++ {
		f.Ingresses = append(f.Ingresses, g.AddNode(Switch, fmt.Sprintf("ingress%d", i)))
	}
	f.IngressA, f.IngressB = f.Ingresses[0], f.Ingresses[1]
	f.CoreA = g.AddNode(Switch, "coreA")
	f.CoreB = g.AddNode(Switch, "coreB")
	f.VictimEdge = g.AddNode(Switch, "victimEdge")
	f.DetourA = g.AddNode(Switch, "detourA")
	f.DetourB = g.AddNode(Switch, "detourB")

	d := DefaultLinkDelay
	// Every ingress is dual-homed to both cores. Link creation order
	// alternates so deterministic tie-breaking splits default routes
	// across the two cores (even ingresses prefer coreA, odd coreB).
	for i, in := range f.Ingresses {
		if i%2 == 0 {
			g.AddDuplex(in, f.CoreA, DefaultLinkBPS, d)
			g.AddDuplex(in, f.CoreB, DefaultLinkBPS, d)
		} else {
			g.AddDuplex(in, f.CoreB, DefaultLinkBPS, d)
			g.AddDuplex(in, f.CoreA, DefaultLinkBPS, d)
		}
	}

	f.CriticalLinkA = g.AddDuplex(f.CoreA, f.VictimEdge, CriticalLinkBPS, d)
	f.CriticalLinkB = g.AddDuplex(f.CoreB, f.VictimEdge, CriticalLinkBPS, d)

	// Detour region: coreX → detourA → detourB → victimEdge (two extra hops).
	g.AddDuplex(f.CoreA, f.DetourA, DetourLinkBPS, d)
	g.AddDuplex(f.CoreB, f.DetourA, DetourLinkBPS, d)
	g.AddDuplex(f.DetourA, f.DetourB, DetourLinkBPS, d)
	g.AddDuplex(f.DetourB, f.VictimEdge, DetourLinkBPS, d)
	return f
}

// Graph returns the underlying topology graph.
func (f *Figure2) Graph() *Graph { return f.G }

// AttachUsers adds n user hosts split across the two ingress switches and
// returns their IDs.
func (f *Figure2) AttachUsers(n int) []NodeID {
	return f.attach(n, "user")
}

// AttachBots adds n bot hosts split across the two ingress switches and
// returns their IDs.
func (f *Figure2) AttachBots(n int) []NodeID {
	return f.attach(n, "bot")
}

func (f *Figure2) attach(n int, prefix string) []NodeID {
	ids := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		sw := f.Ingresses[i%len(f.Ingresses)]
		ids = append(ids, f.G.AttachHost(sw, fmt.Sprintf("%s%d", prefix, i), DefaultHostBPS, DefaultHostDelay))
	}
	return ids
}

// AttachServers adds n public servers (traffic sinks near the victim) on
// the victim edge switch and returns their IDs.
func (f *Figure2) AttachServers(n int) []NodeID {
	ids := make([]NodeID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, f.G.AttachHost(f.VictimEdge, fmt.Sprintf("server%d", i), DefaultHostBPS, DefaultHostDelay))
	}
	return ids
}

// NewLinear builds a chain of n switches: s0 — s1 — … — s(n-1).
func NewLinear(n int) *Graph {
	g := NewGraph()
	var prev NodeID = -1
	for i := 0; i < n; i++ {
		id := g.AddNode(Switch, fmt.Sprintf("s%d", i))
		if prev >= 0 {
			g.AddDuplex(prev, id, DefaultLinkBPS, DefaultLinkDelay)
		}
		prev = id
	}
	return g
}

// NewRing builds a cycle of n switches.
func NewRing(n int) *Graph {
	g := NewLinear(n)
	if n > 2 {
		g.AddDuplex(NodeID(0), NodeID(n-1), DefaultLinkBPS, DefaultLinkDelay)
	}
	return g
}

// FatTree holds the switch layers of a k-ary fat-tree.
type FatTree struct {
	G     *Graph
	K     int
	Core  []NodeID
	Aggs  []NodeID // k/2 per pod, pod-major order
	Edges []NodeID // k/2 per pod, pod-major order
}

// NewFatTree builds a k-ary fat-tree (k even): (k/2)² core switches, k pods
// of k/2 aggregation and k/2 edge switches. Hosts are attached by the
// caller. Fat-trees exercise the Hula-style rerouting booster on its home
// turf and give the placement scheduler a realistically large instance.
func NewFatTree(k int) *FatTree {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree k must be even and ≥ 2, got %d", k))
	}
	g := NewGraph()
	ft := &FatTree{G: g, K: k}
	half := k / 2
	for i := 0; i < half*half; i++ {
		ft.Core = append(ft.Core, g.AddNode(Switch, fmt.Sprintf("core%d", i)))
	}
	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			ft.Aggs = append(ft.Aggs, g.AddNode(Switch, fmt.Sprintf("agg%d_%d", pod, i)))
		}
		for i := 0; i < half; i++ {
			ft.Edges = append(ft.Edges, g.AddNode(Switch, fmt.Sprintf("edge%d_%d", pod, i)))
		}
	}
	for pod := 0; pod < k; pod++ {
		for a := 0; a < half; a++ {
			agg := ft.Aggs[pod*half+a]
			for e := 0; e < half; e++ {
				g.AddDuplex(agg, ft.Edges[pod*half+e], DefaultLinkBPS, DefaultLinkDelay)
			}
			for c := 0; c < half; c++ {
				g.AddDuplex(agg, ft.Core[a*half+c], DefaultLinkBPS, DefaultLinkDelay)
			}
		}
	}
	return ft
}

// NewWaxman builds a random geometric (Waxman) graph of n switches using the
// supplied RNG, retrying until connected. alpha and beta are the standard
// Waxman parameters; alpha scales edge probability, beta controls how
// sharply probability decays with distance.
func NewWaxman(n int, alpha, beta float64, rng *rand.Rand) *Graph {
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g := NewGraph()
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			g.AddNode(Switch, fmt.Sprintf("s%d", i))
			xs[i], ys[i] = rng.Float64(), rng.Float64()
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dx, dy := xs[i]-xs[j], ys[i]-ys[j]
				dist := float64(dx*dx) + float64(dy*dy)
				// L = sqrt(2) is the max distance in the unit square.
				p := alpha * math.Exp(-math.Sqrt(dist)/(beta*math.Sqrt2))
				if rng.Float64() < p {
					g.AddDuplex(NodeID(i), NodeID(j), DefaultLinkBPS, DefaultLinkDelay)
				}
			}
		}
		if g.Connected() {
			return g
		}
	}
	panic("topo: could not generate a connected Waxman graph; raise alpha/beta")
}
