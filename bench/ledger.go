package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime/pprof"
	"syscall"
	"time"
)

// metricDef is one metric of the benchmark's contract. BENCHMARK.json
// repeats these tables (the smoke test keeps the two equal); the code
// looks units up here so a metric's unit is written down once.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// workloadNames is the benchmark's fixed workload list, in run order.
var workloadNames = []string{"lfa-defended", "lfa-bare", "isp-sharded", "planet-hybrid", "serve-mix"}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them from its untraced pass.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sim_speed_x", "x", "higher", 0.10},
	{"jobs_per_s", "1/s", "higher", 0.10},
	{"job_ms_p50", "ms", "lower", 0.10},
	{"job_ms_p90", "ms", "lower", 0.25},
	{"alloc_mb_per_rep", "MB", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer is the ledger the traced pass fills in; a metric that does not
// apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"eventsim.events_per_pkt", "ratio", "lower", 0},
	{"eventsim.events_per_s", "1/s", "higher", 0},
	{"eventsim.cpu_ns_per_pkt", "ns", "lower", 0},
	{"eventsim.hold_ns", "ns", "lower", 0},
	{"netsim.pkts_per_s", "1/s", "higher", 0},
	{"netsim.cpu_ns_per_pkt", "ns", "lower", 0},
	{"netsim.hop_ns", "ns", "lower", 0},
	{"netsim.delivered", "count", "higher", 0},
	{"netsim.drops_queue", "count", "lower", 0},
	{"netsim.drops_pipeline", "count", "lower", 0},
	{"netsim.drops_noroute", "count", "lower", 0},
	{"netsim.drop_ratio", "ratio", "lower", 0},
	{"netsim.pool_new_ratio", "ratio", "lower", 0},
	{"netsim.shard.windows", "count", "lower", 0},
	{"netsim.shard.pkts_per_window", "ratio", "higher", 0},
	{"netsim.shard.busy_frac", "frac", "higher", 0},
	{"netsim.shard.cpu_ns_per_pkt", "ns", "lower", 0},
	{"netsim.shard.speedup_x", "x", "higher", 0},
	{"netsim.fluid.cpu_ns_per_pkt", "ns", "lower", 0},
	{"netsim.fluid.conservation_err", "ratio", "lower", 0},
	{"netsim.fluid.delivered_frac", "frac", "higher", 0},
	{"netsim.fluid.update_ns", "ns", "lower", 0},
	{"dataplane.cpu_ns_per_pkt", "ns", "lower", 0},
	{"dataplane.route_pass_ns", "ns", "lower", 0},
	{"dataplane.dedup_evictions", "count", "lower", 0},
	{"booster.cpu_ns_per_pkt", "ns", "lower", 0},
	{"booster.defense_tax_ns", "ns", "lower", 0},
	{"sketch.update_ns", "ns", "lower", 0},
	{"mode.events_per_rep", "count", "lower", 0},
	{"mode.first_change_ms", "ms", "lower", 0},
	{"topo.build_ms", "ms", "lower", 0},
	{"topo.partition_ms", "ms", "lower", 0},
	{"experiment.cold_setup_ms", "ms", "lower", 0},
	{"experiment.warm_setup_ms", "ms", "lower", 0},
	{"experiment.defended_tput_frac", "frac", "higher", 0},
	{"experiment.undefended_tput_frac", "frac", "lower", 0},
	{"core.reset_ms", "ms", "lower", 0},
	{"runtime.cpu_share", "frac", "lower", 0},
	{"runtime.gc_per_rep", "count", "lower", 0},
	{"runtime.mallocs_per_pkt", "ratio", "lower", 0},
	{"other.cpu_share", "frac", "lower", 0},
	{"bench.cpu_share", "frac", "lower", 0},
	{"bench.trace_overhead_frac", "frac", "lower", 0},
	{"serve.submit_ms_p50", "ms", "lower", 0},
	{"serve.queue_ms_p50", "ms", "lower", 0},
	{"serve.queue_ms_p90", "ms", "lower", 0},
	{"serve.run_warm_ms_p50", "ms", "lower", 0},
	{"serve.run_cold_ms_p50", "ms", "lower", 0},
	{"serve.fetch_ms_p50", "ms", "lower", 0},
	{"serve.result_kb_p50", "kB", "lower", 0},
	{"serve.observe_lag_ms_p50", "ms", "lower", 0},
	{"serve.job_ms_p95", "ms", "lower", 0},
	{"serve.pool_hit_ratio", "ratio", "higher", 0},
	{"serve.lease_busy", "count", "lower", 0},
	{"serve.pool_evictions", "count", "lower", 0},
	{"serve.overhead_frac", "frac", "lower", 0},
}

var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range endToEnd {
		u[d.name] = d.unit
	}
	for _, d := range perLayer {
		u[d.name] = d.unit
	}
	return u
}()

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// span is one interval recorded at a call boundary the benchmark owns.
// Spans of one rep or job share Job.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Job     string `json:"job"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// record is everything one pass over one workload produced. The last line
// of standard output carries only correct/attempted/failed/metrics; the
// whole record goes to bench/out for the all-workloads report and -compare.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Trace      bool               `json:"trace"`
	Comparable bool               `json:"comparable"`
	Why        []string           `json:"not_comparable_because,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Digest     string             `json:"output_digest"`
	N          map[string]int     `json:"n"`
	Metrics    map[string]Metric  `json:"metrics"`
	Counts     map[string]float64 `json:"counts"`
	CPUShares  map[string]float64 `json:"cpu_shares,omitempty"`
	Env        environment        `json:"env"`

	t0      time.Time
	hash    hash.Hash64
	spans   []span
	profile []byte // the traced pass's CPU profile, kept for go tool pprof
}

func newRecord(workload string, o options) *record {
	r := &record{
		Workload: workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Comparable: true,
		N:          map[string]int{}, Metrics: map[string]Metric{}, Counts: map[string]float64{},
		Env:  readEnvironment(),
		t0:   time.Now(),
		hash: fnv.New64a(),
	}
	if o.reduced {
		r.notComparable("reduced-count smoke run")
	}
	if r.Env.NumCPU < 2 {
		r.notComparable("fewer than 2 CPUs")
	}
	return r
}

func (r *record) notComparable(why string) {
	r.Comparable = false
	r.Why = append(r.Why, why)
}

// fail books one failed operation; the exit code and the correct flag
// follow from Failed.
func (r *record) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric; its unit comes from the contract tables, and a
// name outside them is a bug in the benchmark.
func (r *record) set(name string, v float64) {
	u, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in the contract tables")
	}
	r.Metrics[name] = Metric{Value: v, Unit: u}
}

func (r *record) zeroPerLayer() {
	for _, d := range perLayer {
		r.set(d.name, 0)
	}
}

func (r *record) digestText(s string) { r.hash.Write([]byte(s)) }

// digestCounts folds the exact counters into the output digest, in name
// order and at full precision.
func (r *record) digestCounts() {
	for _, n := range sortedKeys(r.Counts) {
		fmt.Fprintf(r.hash, "%s=%.17g\n", n, r.Counts[n])
	}
}

// profiled runs fn under a CPU profile and returns the profile.
func (r *record) profiled(fn func()) []byte {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		r.fail("starting CPU profile: %v", err)
	}
	fn()
	pprof.StopCPUProfile()
	return buf.Bytes()
}

// cpuLedger decodes a CPU profile and books each layer's self time: ns per
// switch pass for the simulator's layers (when the pass count is known)
// and shares for what surrounds them.
func (r *record) cpuLedger(profile []byte, packets float64) {
	r.profile = profile
	frames, err := decodeCPUProfile(profile)
	if err != nil {
		r.fail("decoding CPU profile: %v", err)
		return
	}
	ns, total := layerShares(frames, layerOf)
	if total == 0 {
		r.fail("CPU profile holds no samples")
		return
	}
	r.CPUShares = map[string]float64{}
	for layer, v := range ns {
		r.CPUShares[layer] = float64(v) / float64(total)
	}
	if packets > 0 {
		for _, layer := range cpuLayers {
			r.set(layer+".cpu_ns_per_pkt", float64(ns[layer])/packets)
		}
	}
	for _, layer := range []string{"runtime", "other", "bench"} {
		r.set(layer+".cpu_share", r.CPUShares[layer])
	}
}

func (r *record) addSpan(parent int, name, job string, start, end time.Time) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Job: job,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// repSpans records rep -> {setup, run+collect, checkin} for every arm the
// rep ran, from the seam's checkout/checkin instants and the set-up time
// the run reports (split evenly when a rep runs more than one arm).
func (r *record) repSpans(p rep) {
	job := fmt.Sprintf("rep-%d", len(r.spans))
	root := r.addSpan(0, "rep", job, p.start, p.start.Add(p.wall))
	for _, a := range p.seam.arms {
		if a.checkin.IsZero() {
			continue
		}
		ran := a.checkout.Add(p.run.SetupWall / time.Duration(len(p.seam.arms)))
		if ran.After(a.checkin) {
			ran = a.checkin
		}
		r.addSpan(root, "setup", job, a.checkout, ran)
		r.addSpan(root, "run+collect", job, ran, a.checkin)
		r.addSpan(root, "checkin", job, a.checkin, a.done)
	}
}

// finish seals the record and writes it, and its spans when traced, under
// outDir.
func (r *record) finish(outDir string) error {
	r.Digest = fmt.Sprintf("%016x", r.hash.Sum64())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if len(r.spans) > 0 {
		f, err := os.Create(filepath.Join(outDir, "spans-"+r.Workload+".jsonl"))
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		for _, s := range r.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if r.profile != nil {
		if err := os.WriteFile(filepath.Join(outDir, "cpu-"+r.Workload+".pprof"), r.profile, 0o644); err != nil {
			return err
		}
	}
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, recordFile(r.Workload, r.Trace)), buf, 0o644)
}

func recordFile(workload string, trace bool) string {
	if trace {
		return "record-" + workload + "-traced.json"
	}
	return "record-" + workload + ".json"
}

// contractLine is the last line of standard output the driver reads.
func (r *record) contractLine() string {
	buf, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain data
	}
	return string(buf)
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB),
// which is why every workload runs in a process of its own.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }
