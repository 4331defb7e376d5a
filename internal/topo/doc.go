// Package topo models network topologies: switches, hosts, and capacitated
// links, together with the path algorithms FastFlex's traffic engineering,
// placement, and attack modules need (Dijkstra shortest paths and
// shortest-path trees), the partitioner the sharded engine cuts graphs
// with, and builders for the topologies the paper evaluates on (the
// Figure-2 topology, fat-trees, multi-region ISP variants, and random
// graphs).
//
// Layer (DESIGN.md §2): a leaf substrate — topo imports nothing else in
// the module, and nearly everything above imports it.
//
// Determinism contract (ffvet tier: serial substrate): every builder and
// path algorithm is a pure, deterministic function of its inputs — node
// IDs are dense indices assigned in creation order, tie-breaks sort on
// IDs, and no RNG is ever consulted. This is what makes topologies safe
// to build once and share read-only across concurrent simulations (the
// ffserved engine pool relies on it): a Graph is written only during
// construction and strictly read during runs. ffvet residually bans
// goroutine launches here; anything on a live simulation path gets full
// strictness from the reachability pass.
package topo
