package main

import (
	"fmt"
	"runtime"
	"time"
)

// simRun is what one simulation call shows from outside: its rendered
// text, its deterministic work counters, the set-up time it reports, the
// attack-window goodput of each arm it ran (0 = arm not run), and any
// scenario-specific correctness faults.
type simRun struct {
	Text                 string
	Events, Packets      uint64
	SetupWall            time.Duration
	Defended, Undefended float64
	Faults               []string
}

// simSpec is one simulation workload. run executes one rep at a seed over
// the given warm-fabric source (warmup selects the 1-simulated-second
// variant used during set-up and by the reduced smoke run). ref, when set,
// is the reference arm the traced pass runs on the first two seeds;
// refValue turns the two arms' costs into refMetric.
type simSpec struct {
	name      string
	horizon   time.Duration
	seeds     int
	run, ref  func(seed int64, warmup bool, fab *fabrics) simRun
	refMetric string
	refValue  func(own, ref armCost) float64
	buildTopo func()
	// Correctness gates on the mean attack-window goodput (0 = no gate).
	minDefended, maxUndefended float64
}

// armCost is the host seconds and switch passes of the same seeds through
// one configuration.
type armCost struct{ wallSec, packets float64 }

// rep is one measured simulation call.
type rep struct {
	seedIdx        int
	start          time.Time
	wall           time.Duration
	alloc, mallocs uint64
	gcs            uint32
	run            simRun
	seam           seam
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// simPass carries the state shared by the untraced and traced passes of
// one simulation workload.
type simPass struct {
	spec simSpec
	o    options
	rec  *record
	fab  *fabrics
	// texts holds each cycle seed's rendered output the first time it ran;
	// every later rep of that seed must reproduce it byte for byte.
	texts []string
}

// rep runs fn once at the cycle's seedIdx-th seed as a counted operation,
// timing it and reading the allocator before and after. A panic or a fault
// the run reports fails the operation instead of killing the pass.
func (p *simPass) rep(fn func(int64, bool, *fabrics) simRun, seedIdx int, warmup bool) rep {
	r := rep{seedIdx: seedIdx}
	seed := p.o.seed + int64(seedIdx)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.start = time.Now()
	func() {
		defer func() {
			if pv := recover(); pv != nil {
				r.run.Faults = append(r.run.Faults, fmt.Sprintf("panic: %v", pv))
			}
		}()
		r.run = fn(seed, warmup, p.fab)
	}()
	r.wall = time.Since(r.start)
	runtime.ReadMemStats(&m1)
	r.alloc, r.mallocs, r.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs, m1.NumGC-m0.NumGC
	r.seam = p.fab.take()
	p.rec.Attempted++
	if len(r.run.Faults) > 0 {
		p.rec.fail("seed %d: %v", seed, r.run.Faults)
	}
	return r
}

// setup cold-builds the workload once: a fresh fabric source, the cold
// build and wiring, and the warm-up run through it. It returns the host
// seconds that took and the cold run itself.
func (p *simPass) setup() (float64, rep) {
	runtime.GC()
	t := time.Now()
	p.fab = newFabrics(false)
	r := p.rep(p.spec.run, 0, true)
	return time.Since(t).Seconds(), r
}

// timed runs cycles over the workload's seeds until budget has passed and
// every seed ran at least once, checking each repeat against the first
// rendering of its seed.
func (p *simPass) timed(budget time.Duration) (reps []rep, wall time.Duration, cpu float64) {
	runtime.GC()
	cpu0 := cpuSeconds()
	start := time.Now()
	for i := 0; ; i++ {
		j := i % p.spec.seeds
		r := p.rep(p.spec.run, j, p.o.reduced)
		if p.texts[j] == "" {
			p.texts[j] = r.run.Text
		} else if r.run.Text != p.texts[j] {
			p.rec.fail("seed %d: output differs between two runs of the same seed", p.o.seed+int64(j))
		}
		reps = append(reps, r)
		if i+1 >= p.spec.seeds && time.Since(start)+r.wall/2 >= budget {
			break
		}
	}
	return reps, time.Since(start), cpuSeconds() - cpu0
}

// perSeed returns, for each cycle seed, the median of f over its reps.
func perSeed(reps []rep, seeds int, f func(rep) float64) []float64 {
	by := make([][]float64, seeds)
	for _, r := range reps {
		by[r.seedIdx] = append(by[r.seedIdx], f(r))
	}
	out := make([]float64, seeds)
	for j := range by {
		out[j] = median(by[j])
	}
	return out
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

func wallSec(r rep) float64 { return r.wall.Seconds() }

// gate applies the determinism check of set-up and the goodput gates, and
// folds the first cycle's texts and counters into the output digest.
func (p *simPass) gate(cold rep, reps []rep) {
	// The warm-up re-run on the reset fabric must render the cold run's bytes.
	if warm := p.rep(p.spec.run, 0, true); warm.run.Text != cold.run.Text {
		p.rec.fail("reset fabric does not reproduce the cold run of seed %d", p.o.seed)
	}
	first := reps[:p.spec.seeds] // one rep per seed: the fixed composition of the exact statistics
	var c counts
	var defended, undefended float64
	for _, r := range first {
		c.add(r.seam.counts)
		defended += r.run.Defended / float64(len(first))
		undefended += r.run.Undefended / float64(len(first))
		p.rec.digestText(r.run.Text)
	}
	p.rec.Counts = c.metrics(len(first))
	p.rec.Counts["experiment.defended_tput_frac"] = defended
	p.rec.Counts["experiment.undefended_tput_frac"] = undefended
	p.rec.digestCounts()
	if !p.o.reduced {
		if g := p.spec.minDefended; g > 0 && !(defended >= g) {
			p.rec.fail("defended attack-window goodput %.3f < %.2f", defended, g)
		}
		if g := p.spec.maxUndefended; g > 0 && !(undefended <= g && undefended > 0) {
			p.rec.fail("undefended attack-window goodput %.3f not in (0, %.2f]: the attack did not land", undefended, g)
		}
	}
}

// runSim is the untraced pass: the end-to-end metrics of one simulation
// workload.
func runSim(spec simSpec, o options) *record {
	p := &simPass{spec: spec, o: o, rec: newRecord(spec.name, o), texts: make([]string, spec.seeds)}
	var setups []float64
	var cold rep
	for i := 0; i < o.setups(); i++ {
		s, r := p.setup()
		if i > 0 && r.run.Text != cold.run.Text {
			p.rec.fail("two cold builds of seed %d render different output", o.seed)
		}
		setups, cold = append(setups, s), r
	}
	reps, wall, _ := p.timed(o.budget())
	p.gate(cold, reps)

	// Every statistic is taken over the cycle's seeds, each seed standing
	// in with the median of its repeats, so the composition is the same
	// however many reps the run had time for.
	walls := perSeed(reps, spec.seeds, func(r rep) float64 { return ms(r.wall) })
	allocs := perSeed(reps, spec.seeds, func(r rep) float64 { return float64(r.alloc) / (1 << 20) })
	p.rec.N["reps"], p.rec.N["seeds"] = len(reps), spec.seeds
	p.rec.set("setup_s", median(setups))
	horizon := spec.horizon
	if o.reduced {
		horizon = warmupHorizon
	}
	p.rec.set("sim_speed_x", float64(spec.seeds)*horizon.Seconds()*1e3/sum(walls))
	p.rec.set("jobs_per_s", float64(len(reps))/wall.Seconds())
	p.rec.set("job_ms_p50", percentile(walls, 0.5))
	p.rec.set("job_ms_p90", percentile(walls, 0.9))
	p.rec.set("alloc_mb_per_rep", sum(allocs)/float64(spec.seeds))
	p.rec.set("peak_rss_mb", peakRSSMB())
	return p.rec
}

// traceSim is the traced pass: the per-layer ledger of one simulation
// workload. It runs the same reps first as they are, then under a CPU
// profile with spans recorded and a timed reset after each, then the
// reference arm, then the layer probes.
func traceSim(spec simSpec, o options) *record {
	p := &simPass{spec: spec, o: o, rec: newRecord(spec.name, o), texts: make([]string, spec.seeds)}
	rec := p.rec
	rec.zeroPerLayer()

	var builds []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		spec.buildTopo()
		builds = append(builds, ms(time.Since(t)))
	}
	rec.set("topo.build_ms", median(builds))

	_, cold := p.setup()
	rec.set("experiment.cold_setup_ms", ms(cold.run.SetupWall))

	plain, plainWall, plainCPU := p.timed(o.budget() * 35 / 100)

	var traced []rep
	p.fab.timeReset = true
	prof := rec.profiled(func() { traced, _, _ = p.timed(o.budget() * 35 / 100) })
	p.fab.timeReset = false

	p.gate(cold, plain)
	for name, v := range rec.Counts {
		rec.set(name, v)
	}

	// Time-based figures come from the unprofiled reps.
	var pkts, mallocs float64
	var gcs, warmSetup []float64
	for _, r := range plain {
		pkts += float64(r.run.Packets)
		mallocs += float64(r.mallocs)
		gcs = append(gcs, float64(r.gcs))
		warmSetup = append(warmSetup, ms(r.run.SetupWall))
	}
	plainSeed := perSeed(plain, spec.seeds, wallSec)
	rec.N["reps"], rec.N["traced_reps"] = len(plain), len(traced)
	rec.set("netsim.pkts_per_s", pkts/plainWall.Seconds())
	rec.set("eventsim.events_per_s", pkts*rec.Counts["eventsim.events_per_pkt"]/plainWall.Seconds())
	rec.set("netsim.shard.busy_frac", plainCPU/(float64(runtime.GOMAXPROCS(0))*plainWall.Seconds()))
	rec.set("experiment.warm_setup_ms", median(warmSetup))
	rec.set("runtime.gc_per_rep", median(gcs))
	rec.set("runtime.mallocs_per_pkt", mallocs/pkts)
	rec.set("bench.trace_overhead_frac", sum(perSeed(traced, spec.seeds, wallSec))/sum(plainSeed)-1)

	// CPU self time per layer comes from the profiled reps.
	var tracedPkts float64
	var resets []float64
	for _, r := range traced {
		tracedPkts += float64(r.run.Packets)
		resets = append(resets, r.seam.resetMS...)
		rec.repSpans(r)
	}
	rec.set("core.reset_ms", median(resets))
	rec.cpuLedger(prof, tracedPkts)

	// Reference arm: the first two seeds through the other configuration.
	if spec.ref != nil && !o.reduced {
		var own, ref armCost
		for j := 0; j < 2 && j < spec.seeds; j++ {
			r := p.rep(spec.ref, j, false)
			ref.wallSec += r.wall.Seconds()
			ref.packets += float64(r.run.Packets)
			own.wallSec += plainSeed[j]
			own.packets += float64(plain[j].run.Packets)
		}
		rec.set(spec.refMetric, spec.refValue(own, ref))
	}

	runProbes(rec, o)
	return rec
}

// runProbes runs every isolated layer probe. The reduced smoke run skips
// them: they do fixed work sized for a stable reading, not for speed.
func runProbes(rec *record, o options) {
	if o.reduced {
		return
	}
	for _, pr := range probes() {
		runtime.GC()
		rec.set(pr.name, pr.run())
	}
}
