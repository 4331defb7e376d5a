// Command ffbench regenerates every table and figure from the paper plus
// the ablations in DESIGN.md, printing each result as text (and optionally
// CSV). This is the harness behind EXPERIMENTS.md and the CI benchmark
// smoke job.
//
// Runs fan out across a worker pool (experiment.Runner); each run is an
// independent seed-deterministic simulation, and results print in registry
// order, so serial and parallel invocations emit byte-identical experiment
// text. Wall-clock-derived numbers are confined to the JSON report and the
// clearly-delimited trailing "engine throughput" block (whose event and
// packet counts are deterministic; only the /sec rates vary).
//
// Usage:
//
//	ffbench                     # run everything (the full Figure 3 takes ~1min)
//	ffbench -run fig3           # one experiment by id
//	ffbench -list               # list experiment ids
//	ffbench -csv                # also emit CSV blocks
//	ffbench -parallel 4         # worker-pool size (default: all CPUs)
//	ffbench -seeds 5            # run seeded experiments over seeds 1..5
//	ffbench -json               # write BENCH_ffbench.json
//	ffbench -short              # cut-down horizons (CI smoke)
//	ffbench -shards 4           # sharded engine for fig3x, fig3f, a6 (0 = serial)
//	ffbench -check              # exit 1 if shape checks fail
//	ffbench -compare BENCH_ffbench.json   # exit 1 on wall-time or alloc regression
//	ffbench -cpuprofile cpu.pb.gz         # pprof CPU profile of the whole run
//	ffbench -memprofile mem.pb.gz         # pprof allocation profile at exit
//	ffbench -trace trace.out              # runtime execution trace
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"
	"time"

	"fastflex/internal/experiment"
)

// report is the BENCH_ffbench.json schema.
type report struct {
	GoMaxProcs  int                `json:"gomaxprocs"`
	Workers     int                `json:"workers"`
	Seeds       []int64            `json:"seeds"`
	Shards      int                `json:"shards"`
	Short       bool               `json:"short"`
	TotalWallMS float64            `json:"total_wall_ms"`
	Experiments []experimentReport `json:"experiments"`
	ShapeErrors []string           `json:"shape_errors"`
}

type experimentReport struct {
	ID      string                `json:"id"`
	Desc    string                `json:"desc"`
	Runs    []runReport           `json:"runs"`
	Metrics map[string]metricJSON `json:"metrics"`
}

type runReport struct {
	Seed   int64   `json:"seed"`
	WallMS float64 `json:"wall_ms"`
	// SetupWallMS + SimWallMS split WallMS: setup is topology and fabric
	// construction (or a warm-fabric reset) plus scenario wiring, sim is
	// everything from the engine starting onward. Zero for experiments
	// that don't instrument the split (the fixed-size table experiments).
	SetupWallMS float64 `json:"setup_wall_ms,omitempty"`
	SimWallMS   float64 `json:"sim_wall_ms,omitempty"`
	AllocMB     float64 `json:"alloc_mb"`
	// AllocExact reports whether AllocMB came from a run with the worker
	// pool to itself: TotalAlloc is process-wide, so concurrent workers
	// bleed into each other's deltas and only -parallel 1 runs measure
	// exactly. The -compare alloc gate only trusts exact runs.
	AllocExact bool `json:"alloc_exact"`
	// Events/Packets are deterministic workload counters (simulation
	// events fired, switch pipeline passes); the *PerSec rates divide
	// them by this run's wall time, so only the rates vary run to run.
	Events        uint64  `json:"events,omitempty"`
	Packets       uint64  `json:"packets,omitempty"`
	EventsPerSec  float64 `json:"events_per_sec,omitempty"`
	PacketsPerSec float64 `json:"packets_per_sec,omitempty"`
	// ModeledHosts is the simulated population (packet hosts plus fluid
	// flow weights) for hybrid-substrate experiments; zero otherwise.
	// EventsPerModeledHost divides the deterministic event count by it —
	// the amortized cost figure behind the planet-scale claim.
	ModeledHosts         uint64  `json:"modeled_hosts,omitempty"`
	EventsPerModeledHost float64 `json:"events_per_modeled_host,omitempty"`
	Error                string  `json:"error,omitempty"`
}

type metricJSON struct {
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	N      int     `json:"n"`
}

func main() {
	runID := flag.String("run", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids")
	csv := flag.Bool("csv", false, "also print CSV blocks")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker-pool size for independent runs")
	seeds := flag.Int("seeds", 1, "number of seeds (1..N) for seeded experiments")
	jsonOut := flag.Bool("json", false, "write BENCH_ffbench.json")
	short := flag.Bool("short", false, "run cut-down experiment variants (CI smoke)")
	check := flag.Bool("check", false, "exit 1 if the result shape checks fail")
	compare := flag.String("compare", "", "baseline BENCH_ffbench.json: print a wall-time comparison and exit 1 on regression")
	regress := flag.Float64("regress", 15, "regression threshold for -compare, percent")
	aregress := flag.Float64("aregress", 10, "allocation regression threshold for -compare, percent")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file")
	shards := flag.Int("shards", 0, "sharded-engine worker count for fig3x, fig3f and a6 (0 = serial engine)")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuprofile, *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffbench: %v\n", err)
		os.Exit(1)
	}

	defs := experiment.Registry()
	if *list {
		for _, d := range defs {
			fmt.Printf("%-10s %s\n", d.ID, d.Desc)
		}
		return
	}
	if *runID != "" {
		var picked []experiment.Def
		for _, d := range defs {
			if strings.EqualFold(*runID, d.ID) {
				picked = append(picked, d)
			}
		}
		if len(picked) == 0 {
			fmt.Fprintf(os.Stderr, "ffbench: unknown experiment %q (try -list)\n", *runID)
			os.Exit(2)
		}
		defs = picked
	}
	if *seeds < 1 {
		*seeds = 1
	}
	seedList := make([]int64, *seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}

	specs := experiment.Specs(defs, seedList, *short, *shards)
	start := time.Now()
	results := (&experiment.Runner{Workers: *parallel}).Run(specs)
	totalWall := time.Since(start)
	agg := experiment.Aggregate(results)

	// Render in registry order: the first seed's full Result, then the
	// cross-seed metric aggregates. Nothing here depends on worker count
	// or scheduling, so the text output is byte-identical for any
	// -parallel value.
	failed := false
	for _, d := range defs {
		for _, rr := range results {
			if rr.ID != d.ID {
				continue
			}
			if rr.Err != nil {
				failed = true
				fmt.Fprintf(os.Stderr, "ffbench: %v\n", rr.Err)
				continue
			}
			if rr.Seed == seedList[0] {
				fmt.Println(rr.Result.String())
				if *csv && rr.Result.Table != nil {
					fmt.Println(rr.Result.Table.CSV())
				}
			}
		}
		if m := agg[d.ID]; *seeds > 1 && d.Seeded && len(m) > 0 {
			fmt.Printf("-- %s over %d seeds --\n", d.ID, *seeds)
			for _, name := range experiment.MetricNames(m) {
				fmt.Printf("  %-28s %s\n", name, m[name])
			}
			fmt.Println()
		}
	}

	printThroughput(defs, results)

	shapeErrs := experiment.ShapeChecks(agg)
	for _, e := range shapeErrs {
		fmt.Fprintf(os.Stderr, "ffbench: shape check failed: %s\n", e)
	}

	stopProfiles()
	if err := writeMemProfile(*memprofile); err != nil {
		fmt.Fprintf(os.Stderr, "ffbench: %v\n", err)
		os.Exit(1)
	}

	// Compare before -json writes: the baseline and the report default to
	// the same path (BENCH_ffbench.json), and the committed baseline must
	// be read before it is overwritten with this run's numbers.
	regressed := false
	if *compare != "" {
		var err error
		regressed, err = compareBaseline(*compare, *regress, *aregress, defs, results)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ffbench: comparing baseline: %v\n", err)
			os.Exit(1)
		}
	}
	if *jsonOut {
		if err := writeReport(defs, seedList, *parallel, *shards, *short, totalWall, results, agg, shapeErrs); err != nil {
			fmt.Fprintf(os.Stderr, "ffbench: writing report: %v\n", err)
			os.Exit(1)
		}
	}
	if failed || regressed || (*check && len(shapeErrs) > 0) {
		os.Exit(1)
	}
}

// printThroughput renders the engine-throughput block: per experiment, the
// deterministic workload counters (events fired, pipeline passes — byte-
// identical across worker counts, shard counts, and batching modes) and
// the wall-clock rates they imply, summed over seeds. The rates are the
// one part of ffbench's text that varies run to run; everything above this
// block stays byte-identical.
func printThroughput(defs []experiment.Def, results []experiment.RunResult) {
	printed := false
	for _, d := range defs {
		var events, packets, hosts uint64
		var wall, setup time.Duration
		for _, rr := range results {
			if rr.ID != d.ID || rr.Err != nil || rr.Result == nil {
				continue
			}
			events += rr.Result.Events
			packets += rr.Result.Packets
			hosts += rr.Result.ModeledHosts
			wall += rr.Wall
			setup += rr.Result.SetupWall
		}
		if events == 0 || wall <= 0 {
			continue
		}
		if !printed {
			fmt.Println("-- engine throughput (wall-clock rates vary run to run) --")
			printed = true
		}
		secs := wall.Seconds()
		fmt.Printf("  %-10s %12d events %11d pkts   %8.2f Mev/s %8.2f Mpkt/s",
			d.ID, events, packets, float64(events)/secs/1e6, float64(packets)/secs/1e6)
		if hosts > 0 {
			fmt.Printf("   %d modeled hosts, %.1f ev/host", hosts, float64(events)/float64(hosts))
		}
		if setup > 0 {
			fmt.Printf("   setup %.0f%% of wall", 100*setup.Seconds()/secs)
		}
		fmt.Println()
	}
	if printed {
		fmt.Println()
	}
}

// startProfiles begins CPU profiling and execution tracing if requested,
// returning a stop function to call before writing reports.
func startProfiles(cpuprofile, traceFile string) (stop func(), err error) {
	var stops []func()
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return nil, err
		}
		if err := trace.Start(f); err != nil {
			return nil, err
		}
		stops = append(stops, func() { trace.Stop(); f.Close() })
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}, nil
}

// writeMemProfile dumps an allocation profile (after a GC, so live-heap
// numbers are accurate) if requested.
func writeMemProfile(memprofile string) error {
	if memprofile == "" {
		return nil
	}
	f, err := os.Create(memprofile)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func writeReport(defs []experiment.Def, seeds []int64, workers, shards int, short bool,
	totalWall time.Duration, results []experiment.RunResult,
	agg map[string]map[string]experiment.Agg, shapeErrs []string) error {
	rep := report{
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Workers:     workers,
		Seeds:       seeds,
		Shards:      shards,
		Short:       short,
		TotalWallMS: float64(totalWall.Microseconds()) / 1e3,
		ShapeErrors: shapeErrs,
	}
	if rep.ShapeErrors == nil {
		rep.ShapeErrors = []string{}
	}
	for _, d := range defs {
		er := experimentReport{ID: d.ID, Desc: d.Desc, Metrics: map[string]metricJSON{}}
		for _, rr := range results {
			if rr.ID != d.ID {
				continue
			}
			run := runReport{
				Seed:       rr.Seed,
				WallMS:     float64(rr.Wall.Microseconds()) / 1e3,
				AllocMB:    float64(rr.AllocBytes) / (1 << 20),
				AllocExact: rr.AllocExact,
			}
			if rr.Result != nil && rr.Result.SetupWall > 0 {
				run.SetupWallMS = float64(rr.Result.SetupWall.Microseconds()) / 1e3
				run.SimWallMS = float64((rr.Wall - rr.Result.SetupWall).Microseconds()) / 1e3
			}
			if rr.Result != nil && rr.Result.Events > 0 {
				run.Events = rr.Result.Events
				run.Packets = rr.Result.Packets
				if secs := rr.Wall.Seconds(); secs > 0 {
					run.EventsPerSec = float64(run.Events) / secs
					run.PacketsPerSec = float64(run.Packets) / secs
				}
				if hosts := rr.Result.ModeledHosts; hosts > 0 {
					run.ModeledHosts = hosts
					run.EventsPerModeledHost = float64(run.Events) / float64(hosts)
				}
			}
			if rr.Err != nil {
				run.Error = rr.Err.Error()
			}
			er.Runs = append(er.Runs, run)
		}
		for name, a := range agg[d.ID] {
			er.Metrics[name] = metricJSON{Mean: a.Mean, Stddev: a.Stddev, N: a.N}
		}
		rep.Experiments = append(rep.Experiments, er)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_ffbench.json", append(buf, '\n'), 0o644)
}
