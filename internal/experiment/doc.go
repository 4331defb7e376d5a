// Package experiment is the evaluation harness: it regenerates every table
// and figure in the paper plus the ablations listed in DESIGN.md §3. Each
// experiment is a pure function from a seed to a Result carrying the
// series/table a figure plots and a map of headline metrics; the Registry
// enumerates them and cmd/ffbench and bench_test.go drive them.
//
// Layer (DESIGN.md §2): top of the DAG — it may import everything below
// (core, attack, control, netsim, ...); nothing imports it.
//
// Determinism contract: this package is where the repository's concurrency
// boundary lives. Each experiment run is a seed-deterministic simulation
// (same seed → byte-identical Result, for any engine worker count); the
// Runner fans
// *independent* runs out across a worker pool, which is safe precisely
// because runs share no state — every run builds its own Network, engine,
// and RNG. ffvet's determinism analyzer allows goroutines and wall-clock
// reads here (the Runner times real work) but still bans ambient
// randomness and order-leaking map iteration, so results remain
// reproducible regardless of worker count.
package experiment
