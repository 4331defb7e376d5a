// Package serve is the simulation-as-a-service layer behind cmd/ffserved:
// a job manager that accepts scenario specs over HTTP/JSON (a registry
// experiment name, or an inline topology builder + attack controller +
// booster toggles + horizon), runs them on a bounded worker pool with
// per-job isolation, and exposes job lifecycle, admin, and Prometheus-style
// metrics endpoints. Repeated scenario shapes lease pooled warm fabrics
// (the "engine pool") instead of cold-starting every build.
//
// Layer (DESIGN.md §2): above internal/experiment, the top of the DAG —
// serve drives experiments exactly the way cmd/ffbench does and sees
// nothing below them directly; nothing imports it back except cmd/ffserved.
//
// ffvet tier and concurrency contract: serve sits ABOVE the concurrency
// boundary, alongside internal/experiment (analysis/determinism.go lists
// both in aboveBoundary). It may freely use goroutines, channels, timers,
// and the wall clock — workers, per-job timeouts, and drains need all of
// them — because nothing in this package is reachable from a simulation
// entrypoint: every simulation it triggers runs strictly single-threaded
// below the experiment.Runner boundary. The residual ffvet rules still ban
// ambient randomness, unsorted map iteration, and floating-point
// reductions over map order here, which is what makes the package's core
// guarantee hold: identical specs with identical seeds return byte-identical
// result payloads whether the job ran serially, concurrently with other
// tenants, or on a warm pooled fabric.
package serve
