// Package eventsim provides a deterministic discrete-event simulation engine.
//
// Layer (DESIGN.md §2): substrate, the bottom of the import DAG — it imports
// no other internal package, and everything that simulates (netsim, mode,
// state, control, attack, core, experiment) schedules its callbacks here.
//
// Determinism contract: the engine drives everything else in this
// repository on a single virtual clock. All randomness flows from seeded
// sources this package constructs — the engine's RNG and the per-entity
// NewStream generators; it is the only package allowed to construct a rand
// source (enforced by ffvet's determinism analyzer) — and events due at the
// same instant fire in rank order, each rank minted by the scheduling
// entity's RankOwner, so a seed fully determines an execution. Engines are strictly single-threaded: one
// goroutine may drive Run/Step at a time, which is what lets the
// experiment.Runner execute many engines concurrently, one per run,
// without any locking below the runner layer.
package eventsim
