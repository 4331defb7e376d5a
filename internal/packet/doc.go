// Package packet defines the wire format used by the simulated network:
// an IPv4-like header, TCP/UDP/ICMP layers, and the FastFlex probe header
// that carries mode changes, path-utilization samples, and piggybacked
// state transfers. Packets travel as structs; Packet.Len gives the wire
// size the simulator accounts for, and Marshal/Unmarshal pin the byte
// layout behind it.
//
// Layer (DESIGN.md §2): substrate, imports no other internal package.
// Everything above — sketch, dataplane, netsim, the boosters — speaks in
// these types.
//
// Determinism contract: the package is pure data plus pure functions of
// that data; nothing here reads a clock or randomness. FlowKey is a
// fixed-size array so it can be used directly as a map key (Packet.Flow
// derives it, and its table hash, once per packet), and Pool recycles
// packets — probes and flood copies included — deterministically (a
// per-partition LIFO free list, not a sync.Pool) under an explicit
// ownership contract, so forwarding and defending allocate nothing in
// steady state.
package packet
