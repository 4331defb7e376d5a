// Package mode implements FastFlex's distributed control (§3.3): the
// in-dataplane mode-change protocol that lets detectors activate and clear
// defense modes across the network via probe packets — no SDN controller in
// the loop — plus region scoping for mixed-vector attacks, dwell-time
// hysteresis for stability against attacker-induced flapping (§6), and
// soft-state leases that expire modes nobody re-asserts.
//
// Layer (DESIGN.md §2): beside the boosters, below control and netsim
// orchestration — mode controllers are dataplane residents that see only
// probes and their own switch, never a global view.
//
// Determinism contract (ffvet tier: simulation state): mode controllers
// are live simulation state driven entirely by engine events, so ffvet
// applies full strictness regardless of reachability — no goroutines, no
// wall clock, no ambient randomness, no order-dependent map iteration.
// Probe fan-out and dwell timers are scheduled on simulated time only,
// which is what makes mode-change latency (Figure 2, A1) a measured
// quantity rather than a scheduling artifact.
package mode
