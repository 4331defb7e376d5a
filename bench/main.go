// Command bench is the repository's reference benchmark: five workloads,
// the end-to-end metrics a user of the simulator or of ffserved pays for,
// and a per-layer ledger measured from outside, at calls into public
// functions. BENCHMARK.json at the repository root names this command.
//
//	bash bench/run.sh --workload lfa-defended --seed 101 --seconds 15 --trace 0
//	bash bench/run.sh                      # every workload, untraced then traced
//	bash bench/run.sh -runs 3              # ... with three untraced passes each
//	bash bench/run.sh -compare old.json new.json
//
// run.sh builds this package with the profile cmd/ffbench ships (so the
// measured binary is optimised the way the user's is); the program then
// runs one workload in this process, or each of them in a child process of
// its own, always with GOMAXPROCS=2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procs is the number of threads of work, shards, service workers and
// client connections any workload may use: the size of the box the
// baseline was measured on.
const procs = 2

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// reduced selects the smoke size used by the package's test: one
	// set-up, warm-up-sized reps, one cycle, no probes.
	reduced bool
}

// setups is how many times a pass sets the workload up; setup_s is their
// median.
func (o options) setups() int {
	if o.reduced {
		return 1
	}
	return 3
}

func (o options) budget() time.Duration {
	if o.reduced {
		return 0
	}
	return time.Duration(o.seconds) * time.Second
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all, untraced then traced)")
		seed     = flag.Int64("seed", 101, "workload seed: rep i runs seed+i")
		seconds  = flag.Int("seconds", 15, "how long one pass measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer ledger")
		runs     = flag.Int("runs", 1, "untraced passes per workload when running all of them")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: -compare old.json new.json"))
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		os.Exit(work(options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}))
	default:
		os.Exit(launchAll(*seed, *seconds, *runs))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run dispatches one pass over one workload, in this process.
func run(o options) (*record, error) {
	if o.workload == "serve-mix" {
		if o.trace {
			return traceServeMix(o), nil
		}
		return runServeMix(o), nil
	}
	for _, spec := range simWorkloads() {
		if spec.name == o.workload {
			if o.trace {
				return traceSim(spec, o), nil
			}
			return runSim(spec, o), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
}

// work is one pass over one workload, which is what the driver runs and
// what the all-workloads run starts a child for: every metric printed by
// name with its unit, the full record written to bench/out, and the
// contract line last on standard output.
func work(o options) int {
	runtime.GOMAXPROCS(procs)
	rec, err := run(o)
	if err != nil {
		fatal(err)
	}
	root, err := locate()
	if err != nil {
		fatal(err)
	}
	if err := rec.finish(filepath.Join(root, "bench", "out")); err != nil {
		fatal(err)
	}
	fmt.Print(rec.table())
	fmt.Println(rec.contractLine())
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// table renders the pass for a person: metrics in contract order, the
// digest, and whatever failed.
func (r *record) table() string {
	var b strings.Builder
	pass := "untraced"
	if r.Trace {
		pass = "traced"
	}
	fmt.Fprintf(&b, "== %s (%s, seed %d, %d s, n=%v) ==\n", r.Workload, pass, r.Seed, r.Seconds, r.N)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := r.Metrics[d.name]; ok {
				fmt.Fprintf(&b, "  %-34s %14.6g %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
	fmt.Fprintf(&b, "  %-34s %s\n", "output_digest", r.Digest)
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  FAILED: %s\n", f)
	}
	for _, w := range r.Why {
		fmt.Fprintf(&b, "  NOT COMPARABLE: %s\n", w)
	}
	return b.String()
}

// locate finds the repository root from the working directory, which is
// the root itself (run.sh starts the program there) or bench/ (go test).
func locate() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Join(wd, "bench")} {
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(mod), "module fastflex/bench\n") {
			return filepath.Dir(dir), nil
		}
	}
	return "", fmt.Errorf("no bench/go.mod at or below %s", wd)
}

// child runs one pass in a process of its own and relays its output.
func child(bin, root, workload string, seed int64, seconds, trace int) error {
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd.Run()
}

func exitCode(err error) int {
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ee):
		return ee.ExitCode()
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

// result is bench/out/result.json: every pass of one run of the whole
// benchmark, which -compare reads.
type result struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadPasses `json:"workloads"`
}

type workloadPasses struct {
	Runs   []*record `json:"runs"`
	Traced *record   `json:"traced"`
}

// launchAll runs every workload, untraced runs times and then traced, and
// gathers the children's records into bench/out/result.json.
func launchAll(seed int64, seconds, runs int) int {
	root, err := locate()
	if err != nil {
		fatal(err)
	}
	bin, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	res := result{Env: readEnvironment(), Workloads: map[string]*workloadPasses{}}
	if res.Env.NumCPU < procs || res.Env.Load1 > 0.5 {
		fmt.Fprintf(os.Stderr, "bench: WARNING: %d CPUs, load average %.2f at start: timings from this run are not comparable\n",
			res.Env.NumCPU, res.Env.Load1)
	}
	out := filepath.Join(root, "bench", "out")
	code := 0
	for _, w := range workloadNames {
		wp := &workloadPasses{}
		res.Workloads[w] = wp
		for pass := 0; pass <= runs; pass++ {
			trace, secs := 0, seconds
			if pass == runs { // the traced pass is shorter: it feeds no end-to-end metric
				trace, secs = 1, (seconds+1)/2
			}
			recPath := filepath.Join(out, recordFile(w, trace == 1))
			os.Remove(recPath) //nolint:errcheck // a record left by an earlier run must not be read as this pass's
			if c := exitCode(child(bin, root, w, seed, secs, trace)); c != 0 {
				code = c
			}
			rec, err := readJSON[record](recPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 2
				continue
			}
			if trace == 1 {
				wp.Traced = rec
			} else {
				wp.Runs = append(wp.Runs, rec)
			}
		}
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(out, "result.json"), buf, 0o644)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Print(res.summary())
	fmt.Printf("wrote %s\n", filepath.Join("bench", "out", "result.json"))
	return code
}

// readJSON reads a record or a result back from bench/out.
func readJSON[T any](path string) (*T, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v := new(T)
	if err := json.Unmarshal(buf, v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// values collects one metric over a workload's untraced runs.
func (wp *workloadPasses) values(metric string) []float64 {
	var v []float64
	for _, r := range wp.Runs {
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// summary is the end-to-end table of a whole run: median and quartiles per
// metric and workload over the untraced passes.
func (res *result) summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n%-14s %-18s %14s %14s %14s  %s\n", "workload", "metric", "median", "q1", "q3", "unit")
	for _, w := range workloadNames {
		wp := res.Workloads[w]
		if wp == nil {
			continue
		}
		for _, d := range endToEnd {
			v := wp.values(d.name)
			q1, _, q3 := quartiles(v)
			fmt.Fprintf(&b, "%-14s %-18s %14.6g %14.6g %14.6g  %s\n", w, d.name, median(v), q1, q3, d.unit)
		}
		for _, r := range wp.Runs {
			fmt.Fprintf(&b, "%-14s %-18s %s (failed %d of %d)\n", w, "output_digest", r.Digest, r.Failed, r.Attempted)
		}
	}
	return b.String()
}

// environment is the header every record carries so two results can be
// judged comparable before their numbers are.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	PGO        string  `json:"pgo_fnv64a"`
	CPUModel   string  `json:"cpu_model"`
	Load1      float64 `json:"load1"`
}

func readEnvironment() environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), PGO: "none", CPUModel: "unknown",
	}
	if root, err := locate(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			env.Commit = strings.TrimSpace(string(out))
		}
		if prof, err := os.ReadFile(filepath.Join(root, "cmd", "ffbench", "default.pgo")); err == nil {
			h := fnv.New64a()
			h.Write(prof)
			env.PGO = fmt.Sprintf("%016x", h.Sum64())
		}
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if buf, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(buf)); len(f) > 0 {
			env.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return env
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
