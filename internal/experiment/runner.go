package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Spec is one unit of work for the Runner: an experiment at a seed.
type Spec struct {
	Def  Def
	Seed int64
	// Short selects the Def's cut-down variant when it has one.
	Short bool
	// Shards is the engine shard count handed to the Def (RunOpts.Shards).
	Shards int
}

// RunResult is the outcome of one Spec, with the measurements ffbench's
// JSON report records.
type RunResult struct {
	ID     string
	Seed   int64
	Result *Result
	// Err holds a recovered panic, if the experiment crashed.
	Err error
	// Wall is the real (not simulated) execution time of this run; its
	// setup fraction (topology + fabric build or warm reset + scenario
	// wiring) is Result.SetupWall for instrumented experiments.
	Wall time.Duration
	// AllocBytes is the heap allocated during the run, from TotalAlloc
	// deltas. TotalAlloc is process-wide, so with several workers,
	// concurrent runs bleed into each other's deltas; AllocExact reports
	// whether this run's delta was free of that bleed (single-worker
	// pool). Treat non-exact values as indicative only.
	AllocBytes uint64
	AllocExact bool
}

// Runner executes experiment Specs across a pool of worker goroutines.
//
// This is the repository's concurrency boundary (DESIGN.md, "Concurrency
// boundary"): every simulation below this type is strictly single-threaded
// and seed-deterministic, and the Runner only ever parallelizes *across*
// runs, never within one. Because a run builds its own Network, engine,
// and RNG from its seed, per-seed results are byte-identical whatever the
// worker count or completion order; Run returns results indexed by Spec
// position, so callers iterate them deterministically.
//
// Each worker owns a private FabricCache: fabric-building experiments
// check finished fabrics back into it, and later seeds of the same shape
// reset-and-reuse them instead of cold-building (byte-identical by the
// reset contract). Reuse is strictly worker-local — no simulation object
// ever crosses a goroutine — so the boundary above holds exactly as
// before.
type Runner struct {
	// Workers is the pool size; 0 or less means runtime.NumCPU().
	Workers int
}

// Run executes all specs and returns one RunResult per spec, in spec
// order. A panicking experiment is reported in its RunResult.Err and does
// not take the pool down.
func (r *Runner) Run(specs []Spec) []RunResult {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	allocExact := workers == 1
	results := make([]RunResult, len(specs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cache := NewFabricCache(0)
			for i := range jobs {
				results[i] = RunOne(specs[i], cache)
				results[i].AllocExact = allocExact
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// RunOne executes one spec on the calling goroutine, handing the Def the
// given fabric source (nil: every fabric is cold-built). A panicking
// experiment is reported in RunResult.Err. The Runner calls it per worker;
// ffserved calls it directly with its lease pool.
func RunOne(spec Spec, fabrics FabricSource) (rr RunResult) {
	rr.ID = spec.Def.ID
	rr.Seed = spec.Seed
	defer func() {
		if p := recover(); p != nil {
			rr.Err = fmt.Errorf("experiment %s (seed %d) panicked: %v", rr.ID, rr.Seed, p)
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rr.Result = spec.Def.Run(RunOpts{Seed: spec.Seed, Short: spec.Short, Shards: spec.Shards, Fabrics: fabrics})
	rr.Wall = time.Since(start)
	runtime.ReadMemStats(&after)
	rr.AllocBytes = after.TotalAlloc - before.TotalAlloc
	return rr
}

// Specs expands a set of experiment definitions over seeds: seeded
// experiments get one Spec per seed, unseeded ones a single Spec. The
// expansion order (definition-major) is the deterministic order ffbench
// reports in.
func Specs(defs []Def, seeds []int64, short bool, shards int) []Spec {
	var specs []Spec
	for _, d := range defs {
		if !d.Seeded || len(seeds) == 0 {
			seed := int64(1)
			if len(seeds) > 0 {
				seed = seeds[0]
			}
			specs = append(specs, Spec{Def: d, Seed: seed, Short: short, Shards: shards})
			continue
		}
		for _, s := range seeds {
			specs = append(specs, Spec{Def: d, Seed: s, Short: short, Shards: shards})
		}
	}
	return specs
}
