package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// serve-mix: the service path. Two closed-loop clients (callers that wait
// for their reply), one keep-alive connection each, drive the daemon's
// HTTP API in-process: submit, poll status every pollEvery, fetch the
// result, submit the next job.
const (
	mixClients  = 2
	mixWorkers  = 2
	pollEvery   = 2 * time.Millisecond
	mixHorizon  = 3.0 // simulated seconds per job
	mixAttackAt = 1.0
	// minJobs is the fixed prefix of each client's job sequence that always
	// runs and that the output digest covers, however long the run lasts.
	minJobs = 20
	// coldShapes distinct cold topologies cycle past the daemon's 32-entry
	// warm pool, so a cold job never finds its fabric and keeps evicting.
	coldShapes = 48
)

// mixJob is one generated request: an inline single-arm scenario.
type mixJob struct {
	HotKey                      int // 0..3 for a hot job, -1 for a cold one
	Regions, RegionSize         int // 0 = the paper topology
	Users, Bots, Servers        int
	Defense                     string
	DurationSec, AttackStartSec float64
	BotRateBps, ScoutEverySec   float64
	Seed                        int64
}

// hotJob returns the request for one of the four warm fabric keys:
// {paper topology, 2x6 multi-region} x {fastflex, undefended}.
func hotJob(key int) mixJob {
	j := mixJob{HotKey: key, Users: 8, Bots: 40, Servers: 8, Defense: "fastflex"}
	if key/2 == 1 {
		j.Regions, j.RegionSize, j.Bots, j.Servers = 2, 6, 32, 4
	}
	if key%2 == 1 {
		j.Defense = "undefended"
	}
	return j
}

// mixGen is one client's seeded job sequence. Its composition is fixed so
// that two seeds do the same kind of work: every block of 16 jobs holds each
// hot key three times (75 %: the fabric key repeats, so the job leases and
// resets a warm fabric) and four cold jobs (25 %: a topology shape the pool
// has never seen or has already evicted). The seed decides the order inside
// a block, and every job's attack parameters and simulation seed.
type mixGen struct {
	rng   *rand.Rand
	block []int // hot keys and -1 for cold, still to be issued from this block
	cold  int
}

func newMixGen(seed int64, client int) *mixGen {
	return &mixGen{rng: rand.New(rand.NewSource(seed*1000 + int64(client))), cold: client * coldShapes / mixClients}
}

func (g *mixGen) next() mixJob {
	if len(g.block) == 0 {
		g.block = []int{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, -1, -1, -1, -1}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	key := g.block[0]
	g.block = g.block[1:]
	j := hotJob(key)
	if key < 0 {
		j = mixJob{HotKey: -1, Users: 8, Bots: 41 + g.cold%coldShapes, Servers: 8, Defense: "fastflex"}
		g.cold++
	}
	j.DurationSec, j.AttackStartSec = mixHorizon, mixAttackAt
	j.BotRateBps = 1e6 + 1e5*float64(g.rng.Intn(6))
	j.ScoutEverySec = 0.5 * float64(1+g.rng.Intn(2))
	j.Seed = 1 + g.rng.Int63n(1000)
	return j
}

// body renders the job as the daemon's POST /v1/jobs request.
func (j mixJob) body() []byte {
	topology := map[string]any{"users": j.Users, "bots": j.Bots, "servers": j.Servers}
	if j.Regions > 0 {
		topology["kind"], topology["regions"], topology["region_size"] = "multiregion", j.Regions, j.RegionSize
	}
	buf, err := json.Marshal(map[string]any{
		"seeds": []int64{j.Seed},
		"scenario": map[string]any{
			"topology":     topology,
			"attack":       map[string]any{"start_sec": j.AttackStartSec, "bot_rate_bps": j.BotRateBps, "scout_every_sec": j.ScoutEverySec},
			"defense":      j.Defense,
			"duration_sec": j.DurationSec,
		},
	})
	if err != nil {
		panic(err) // plain data
	}
	return buf
}

// jobStatus is the part of the daemon's job status the client reads.
type jobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	PoolHits int        `json:"pool_hits"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Error    string     `json:"error"`
}

// jobObs is one job as its client saw it.
type jobObs struct {
	job                               mixJob
	status                            jobStatus
	sent, accepted, observed, fetched time.Time
	text                              string
	resultBytes                       int
	err                               string
}

func (o jobObs) latencyMS() float64 { return ms(o.observed.Sub(o.sent)) }

type mixClient struct {
	base string
	http *http.Client
}

func newMixClient(base string) *mixClient {
	return &mixClient{base: base, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (c *mixClient) call(method, path string, body []byte, want int, into any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != want {
		return 0, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if into != nil {
		if err := json.Unmarshal(raw, into); err != nil {
			return 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return len(raw), nil
}

// do runs one job to completion: submit, poll until terminal, fetch.
func (c *mixClient) do(j mixJob) (o jobObs) {
	o.job = j
	o.sent = time.Now()
	if _, err := c.call("POST", "/v1/jobs", j.body(), http.StatusAccepted, &o.status); err != nil {
		o.err = err.Error()
		return o
	}
	o.accepted = time.Now()
	for o.status.State == "queued" || o.status.State == "running" {
		time.Sleep(pollEvery)
		if _, err := c.call("GET", "/v1/jobs/"+o.status.ID, nil, http.StatusOK, &o.status); err != nil {
			o.err = err.Error()
			return o
		}
	}
	o.observed = time.Now()
	if o.status.State != "done" {
		o.err = fmt.Sprintf("job %s ended %s: %s", o.status.ID, o.status.State, o.status.Error)
		return o
	}
	var res struct {
		Runs []struct {
			Text string `json:"text"`
		} `json:"runs"`
	}
	n, err := c.call("GET", "/v1/jobs/"+o.status.ID+"/result", nil, http.StatusOK, &res)
	o.fetched = time.Now()
	switch {
	case err != nil:
		o.err = err.Error()
	case len(res.Runs) != 1:
		o.err = fmt.Sprintf("job %s: %d runs in result, want 1", o.status.ID, len(res.Runs))
	default:
		o.text, o.resultBytes = res.Runs[0].Text, n
	}
	return o
}

// mixPass is one started service with its clients.
type mixPass struct {
	o       options
	rec     *record
	srv     *httptest.Server
	stop    func()
	clients []*mixClient
	gens    []*mixGen
	// sample holds the first done job seen per hot key, for the
	// byte-equality check against the direct run.
	mu     sync.Mutex
	sample [4]*jobObs
}

// each runs fn once per client, concurrently, and waits for all of them.
func (p *mixPass) each(fn func(c int)) {
	var wg sync.WaitGroup
	for c := range p.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// book counts one finished job and keeps the per-key sample.
func (p *mixPass) book(o *jobObs) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rec.Attempted++
	if o.err != "" {
		p.rec.fail("%s", o.err)
		return
	}
	if k := o.job.HotKey; k >= 0 && p.sample[k] == nil {
		p.sample[k] = o
	}
}

// setup starts the service and warms it: every hot key three times over,
// split between the clients. It returns the host seconds that took.
func (p *mixPass) setup() float64 {
	runtime.GC()
	t := time.Now()
	handler, stop := startService(mixWorkers)
	p.srv, p.stop = httptest.NewServer(handler), stop
	p.clients, p.gens = nil, nil
	for c := 0; c < mixClients; c++ {
		p.clients = append(p.clients, newMixClient(p.srv.URL))
		p.gens = append(p.gens, newMixGen(p.o.seed, c))
	}
	warm := 12
	if p.o.reduced {
		warm = 4
	}
	p.each(func(c int) {
		for i := c; i < warm; i += mixClients {
			j := hotJob(i % 4)
			j.DurationSec, j.AttackStartSec, j.BotRateBps, j.ScoutEverySec, j.Seed = mixHorizon, mixAttackAt, 1.5e6, 1, int64(1+i)
			o := p.clients[c].do(j)
			p.book(&o)
		}
	})
	return time.Since(t).Seconds()
}

func (p *mixPass) shutdown() {
	for _, c := range p.clients {
		c.http.CloseIdleConnections()
	}
	p.srv.Close()
	p.stop()
}

// mixRun is what one timed phase of the closed loop produced.
type mixRun struct {
	jobs    [][]jobObs // per client, in completion order
	elapsed []float64  // per client: seconds from start to its last completion
}

func (r mixRun) all() []jobObs {
	var out []jobObs
	for _, js := range r.jobs {
		out = append(out, js...)
	}
	return out
}

// timed lets every client work through its sequence until budget has
// passed and at least min jobs are done.
func (p *mixPass) timed(budget time.Duration, min int) mixRun {
	run := mixRun{jobs: make([][]jobObs, len(p.clients)), elapsed: make([]float64, len(p.clients))}
	runtime.GC()
	start := time.Now()
	p.each(func(c int) {
		for n := 0; n < min || time.Since(start) < budget; n++ {
			o := p.clients[c].do(p.gens[c].next())
			p.book(&o)
			run.jobs[c] = append(run.jobs[c], o)
		}
		run.elapsed[c] = time.Since(start).Seconds()
	})
	return run
}

// verify digests the fixed prefix of every client's results and checks one
// job per hot key against the direct run of the same scenario.
func (p *mixPass) verify(run mixRun, min int) {
	for _, js := range run.jobs {
		for i := 0; i < min && i < len(js); i++ {
			p.rec.digestText(js[i].text)
		}
	}
	for k, o := range p.sample {
		if o == nil {
			continue // a reduced run may not reach every key
		}
		p.rec.Attempted++
		if want := directRun(o.job); o.text != want {
			p.rec.fail("hot key %d: job %s differs from the direct run of the same scenario", k, o.status.ID)
		}
	}
}

func latencies(jobs []jobObs) []float64 {
	var v []float64
	for _, o := range jobs {
		if o.err == "" {
			v = append(v, o.latencyMS())
		}
	}
	return v
}

func (p *mixPass) minJobs() int {
	if p.o.reduced {
		return 3
	}
	return minJobs
}

// runServeMix is the untraced pass of serve-mix.
func runServeMix(o options) *record {
	p := &mixPass{o: o, rec: newRecord("serve-mix", o)}
	var setups []float64
	for i := 0; i < o.setups(); i++ {
		if i > 0 {
			p.shutdown()
		}
		setups = append(setups, p.setup())
	}
	defer p.shutdown()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	run := p.timed(o.budget(), p.minJobs())
	runtime.ReadMemStats(&m1)
	p.verify(run, p.minJobs())

	var rate float64
	for c, js := range run.jobs {
		rate += float64(len(js)) / run.elapsed[c]
	}
	lat := latencies(run.all())
	p.rec.N["jobs"] = len(lat)
	p.rec.set("setup_s", median(setups))
	p.rec.set("sim_speed_x", rate*mixHorizon)
	p.rec.set("jobs_per_s", rate)
	p.rec.set("job_ms_p50", percentile(lat, 0.5))
	p.rec.set("job_ms_p90", percentile(lat, 0.9))
	p.rec.set("alloc_mb_per_rep", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/float64(len(run.all())))
	p.rec.set("peak_rss_mb", peakRSSMB())
	return p.rec
}

// traceServeMix is the traced pass of serve-mix: the phases of a job from
// the timestamps the API already returns, the pool's behaviour from job
// statuses and a final /metrics scrape, then the same loop under a CPU
// profile with a span tree per job.
func traceServeMix(o options) *record {
	p := &mixPass{o: o, rec: newRecord("serve-mix", o)}
	rec := p.rec
	rec.zeroPerLayer()
	p.setup()
	defer p.shutdown()

	plain := p.timed(o.budget()*35/100, p.minJobs())
	var traced mixRun
	prof := rec.profiled(func() { traced = p.timed(o.budget()*35/100, p.minJobs()) })
	p.verify(plain, p.minJobs())

	var submit, queue, warm, cold, fetch, kb, lag []float64
	var runSum, latSum, hits float64
	jobs := plain.all()
	for _, j := range jobs {
		if j.err != "" || j.status.Started == nil || j.status.Finished == nil {
			continue
		}
		ran := ms(j.status.Finished.Sub(*j.status.Started))
		submit = append(submit, ms(j.accepted.Sub(j.sent)))
		queue = append(queue, ms(j.status.Started.Sub(j.status.Created)))
		fetch = append(fetch, ms(j.fetched.Sub(j.observed)))
		kb = append(kb, float64(j.resultBytes)/1e3)
		lag = append(lag, ms(j.observed.Sub(*j.status.Finished)))
		if j.status.PoolHits > 0 {
			warm = append(warm, ran)
			hits++
		} else {
			cold = append(cold, ran)
		}
		runSum += ran
		latSum += j.latencyMS()
	}
	lat := latencies(jobs)
	rec.N["jobs"], rec.N["traced_jobs"] = len(lat), len(traced.all())
	rec.set("serve.submit_ms_p50", median(submit))
	rec.set("serve.queue_ms_p50", median(queue))
	rec.set("serve.queue_ms_p90", percentile(queue, 0.9))
	rec.set("serve.run_warm_ms_p50", median(warm))
	rec.set("serve.run_cold_ms_p50", median(cold))
	rec.set("serve.fetch_ms_p50", median(fetch))
	rec.set("serve.result_kb_p50", median(kb))
	rec.set("serve.observe_lag_ms_p50", median(lag))
	rec.set("serve.job_ms_p95", percentile(lat, 0.95))
	rec.set("serve.pool_hit_ratio", hits/float64(len(lat)))
	rec.set("serve.overhead_frac", 1-runSum/latSum)
	rec.set("bench.trace_overhead_frac", median(latencies(traced.all()))/median(lat)-1)
	if v := median(lag); v > 2 {
		rec.notComparable(fmt.Sprintf("clients observed completion %.2f ms late (more than the 2 ms polling quantum)", v))
	}

	var scrape []byte
	if resp, err := http.Get(p.srv.URL + "/metrics"); err != nil {
		rec.fail("scraping /metrics: %v", err)
	} else {
		scrape, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rec.set("serve.lease_busy", promValue(scrape, "ffserved_engine_pool_lease_busy_total"))
	rec.set("serve.pool_evictions", promValue(scrape, "ffserved_engine_pool_evictions_total"))

	for _, j := range traced.all() {
		rec.jobSpans(j)
	}
	rec.cpuLedger(prof, 0)
	runProbes(rec, o)
	return rec
}

// promValue reads one unlabelled series from a Prometheus text scrape.
func promValue(scrape []byte, name string) float64 {
	for _, line := range strings.Split(string(scrape), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// jobSpans records job -> {submit, queue, run, fetch} under the job's id.
func (r *record) jobSpans(j jobObs) {
	if j.err != "" || j.status.Started == nil || j.status.Finished == nil {
		return
	}
	root := r.addSpan(0, "job", j.status.ID, j.sent, j.fetched)
	r.addSpan(root, "submit", j.status.ID, j.sent, j.accepted)
	r.addSpan(root, "queue", j.status.ID, j.status.Created, *j.status.Started)
	r.addSpan(root, "run", j.status.ID, *j.status.Started, *j.status.Finished)
	r.addSpan(root, "fetch", j.status.ID, j.observed, j.fetched)
}
