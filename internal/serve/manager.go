package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"fastflex/internal/experiment"
)

// Config parameterizes a Manager. The zero value takes the defaults
// documented per field.
type Config struct {
	// Workers is the number of jobs run concurrently (default 8). Each
	// worker drives one strictly serial simulation at a time, so this is
	// also the daemon's peak simulation parallelism.
	Workers int
	// QueueDepth bounds jobs accepted but not yet running (default 64);
	// submissions beyond it are rejected with ErrQueueFull.
	QueueDepth int
	// DefaultTimeout is the per-job wall-clock ceiling (default 10m). A
	// request may lower it via timeout_sec, never raise it.
	DefaultTimeout time.Duration
	// PoolSize bounds the engine pool's idle warm fabrics (default 32).
	// Each idle fabric retains heap in proportion to its topology and to
	// the flows its last run saw: ~4 MB for a Figure-2 FastFlex fabric
	// after a short job, ~7.6 MB for a multiregion 2x6 one (OPERATIONS.md,
	// "Memory").
	PoolSize int
	// MaxJobs bounds retained finished-job records (default 1024); the
	// oldest finished jobs are evicted first.
	MaxJobs int
	// Shards is the daemon-wide engine worker count registry experiments
	// run with (experiment.RunOpts.Shards), mirroring ffbench -shards.
	// Inline scenarios carry their own.
	Shards int
	// Defs is the experiment registry served (default
	// experiment.Registry()). Tests inject panicking or slow definitions
	// here.
	Defs []experiment.Def
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 10 * time.Minute
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 32
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.Defs == nil {
		c.Defs = experiment.Registry()
	}
}

// JobState is a job's lifecycle state.
type JobState string

// Job lifecycle: queued → running → done | failed | canceled. Timeouts
// land in failed with a "timed out" error.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

func terminal(s JobState) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Submission/lookup errors; the HTTP layer maps them to status codes.
var (
	ErrQueueFull = errors.New("job queue is full")
	ErrDraining  = errors.New("server is draining")
	ErrNotFound  = errors.New("no such job")
)

// job is the manager's record of one submission. All mutable fields are
// guarded by Manager.mu.
type job struct {
	id      string
	req     JobRequest // normalized
	digest  string
	timeout time.Duration

	state                      JobState
	errMsg                     string
	created, started, finished time.Time
	runsTotal, runsDone        int
	poolHits, poolMisses       int
	wall                       time.Duration
	allocBytes                 uint64
	payload                    *ResultPayload

	def      experiment.Def
	specs    []experiment.Spec
	cancelCh chan struct{} // closed by Cancel; observed by the job's worker
	canceled bool
}

// counters are the manager's monotonically increasing metrics, guarded by
// Manager.mu.
type counters struct {
	jobsSubmitted uint64
	jobsDone      uint64
	jobsFailed    uint64
	jobsCanceled  uint64
	jobTimeouts   uint64

	runsTotal      uint64
	runWallSeconds float64
	runAllocBytes  uint64

	panicsRecovered uint64
	runsDetached    uint64
}

// Manager owns the job table, the bounded worker pool, and the engine
// pool. It is the single concurrency domain of the service layer: HTTP
// handlers and workers synchronize only through it.
type Manager struct {
	cfg   Config
	pool  *enginePool
	start time.Time

	queue chan *job

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order
	nextID   int
	inflight int
	draining bool
	closed   bool
	met      counters

	wg sync.WaitGroup
}

// NewManager starts cfg.Workers workers and returns the manager.
func NewManager(cfg Config) *Manager {
	cfg.fillDefaults()
	m := &Manager{
		cfg:   cfg,
		pool:  newEnginePool(cfg.PoolSize),
		start: time.Now(),
		queue: make(chan *job, cfg.QueueDepth),
		jobs:  make(map[string]*job),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.runJob(j)
			}
		}()
	}
	return m
}

// Defs returns the registry the manager serves.
func (m *Manager) Defs() []experiment.Def { return m.cfg.Defs }

// Submit validates and enqueues a request, returning the new job's
// status. Errors: badRequest (invalid spec), ErrDraining, ErrQueueFull.
func (m *Manager) Submit(req JobRequest) (*JobStatus, error) {
	if err := req.normalize(m.cfg.Defs, m.cfg.DefaultTimeout); err != nil {
		return nil, err
	}
	timeout := m.cfg.DefaultTimeout
	if req.TimeoutSec > 0 {
		timeout = time.Duration(req.TimeoutSec * float64(time.Second))
	}
	j := &job{
		req:      req,
		digest:   req.digest(),
		timeout:  timeout,
		state:    StateQueued,
		cancelCh: make(chan struct{}),
	}
	j.def = m.resolveDef(&req)
	j.specs = experiment.Specs([]experiment.Def{j.def}, req.Seeds, req.Short, m.cfg.Shards)
	j.runsTotal = len(j.specs)

	m.mu.Lock()
	if m.draining || m.closed {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.nextID++
	j.id = fmt.Sprintf("j%06d", m.nextID)
	j.created = time.Now()
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.met.jobsSubmitted++
	m.evictLocked()
	st := m.statusLocked(j)
	m.mu.Unlock()
	return st, nil
}

// resolveDef maps a normalized request to the experiment definition its
// runs execute: the inline scenario's, or the registry entry as-is.
func (m *Manager) resolveDef(req *JobRequest) experiment.Def {
	if req.Scenario != nil {
		return req.Scenario.def()
	}
	for _, d := range m.cfg.Defs {
		if d.ID == req.Experiment {
			return d
		}
	}
	return experiment.Def{} // unreachable: normalize matched the id
}

// jobFabrics adapts the manager's engine pool to experiment.FabricSource
// for one job, booking pool hits and misses against the job's record and
// remembering which leases are still out. The pool is safe for concurrent
// use, so any number of jobs share it; exclusivity of each leased fabric
// is the pool's checkout contract. A job's runs are strictly serial, so
// outstanding needs no lock of its own.
type jobFabrics struct {
	m           *Manager
	j           *job
	outstanding []string // keys checked out and not yet checked in
}

func (f *jobFabrics) Checkout(key string) *experiment.WarmFabric {
	wf := f.m.pool.Checkout(key)
	f.outstanding = append(f.outstanding, key)
	f.m.mu.Lock()
	if wf != nil {
		f.j.poolHits++
	} else {
		f.j.poolMisses++
	}
	f.m.mu.Unlock()
	return wf
}

func (f *jobFabrics) Checkin(wf *experiment.WarmFabric) {
	if i := slices.Index(f.outstanding, wf.Key); i >= 0 {
		f.outstanding = slices.Delete(f.outstanding, i, i+1)
	}
	f.m.pool.Checkin(wf)
}

// releaseOutstanding ends the leases of a run that panicked between
// checkout and checkin; without it the pool's leased gauge never drops and
// every later miss on those keys is booked as lease_busy.
func (f *jobFabrics) releaseOutstanding() {
	for _, k := range f.outstanding {
		f.m.pool.release(k)
	}
	f.outstanding = nil
}

// runJob is a worker's execution of one dequeued job: it runs the specs
// in a child goroutine and waits for completion, cancellation, or
// timeout. On cancel/timeout the worker detaches — the child finishes its
// current uninterruptible simulation in the background and its result is
// discarded — so one stuck or slow job cannot hold a worker slot past its
// deadline.
func (m *Manager) runJob(j *job) {
	m.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	m.inflight++
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			// experiment.RunOne already converts a panicking experiment
			// into RunResult.Err; this recover is the outer hull for the
			// serve glue itself, so no job can take a worker down.
			if p := recover(); p != nil {
				m.mu.Lock()
				m.met.panicsRecovered++
				m.finishLocked(j, StateFailed, fmt.Sprintf("job runner panicked: %v", p))
				m.mu.Unlock()
			}
		}()
		m.runSpecs(j)
	}()

	timer := time.NewTimer(j.timeout)
	defer timer.Stop()
	select {
	case <-done:
	case <-j.cancelCh:
		m.mu.Lock()
		if m.finishLocked(j, StateCanceled, "canceled while running") {
			m.met.runsDetached++
		}
		m.mu.Unlock()
	case <-timer.C:
		m.mu.Lock()
		if m.finishLocked(j, StateFailed, fmt.Sprintf("timed out after %v", j.timeout)) {
			m.met.jobTimeouts++
			m.met.runsDetached++
		}
		m.mu.Unlock()
	}
}

// runSpecs executes the job's specs in order, one strictly serial
// simulation at a time, recording progress after each. It stops silently
// if the job was finished under it (cancel or timeout detach).
func (m *Manager) runSpecs(j *job) {
	fx := &jobFabrics{m: m, j: j}
	results := make([]experiment.RunResult, 0, len(j.specs))
	for _, spec := range j.specs {
		m.mu.Lock()
		live := j.state == StateRunning
		m.mu.Unlock()
		if !live {
			return
		}
		rr := experiment.RunOne(spec, fx)
		if rr.Err != nil {
			fx.releaseOutstanding()
		}

		m.mu.Lock()
		if j.state != StateRunning {
			m.mu.Unlock()
			return
		}
		j.runsDone++
		j.wall += rr.Wall
		j.allocBytes += rr.AllocBytes
		m.met.runsTotal++
		m.met.runWallSeconds += rr.Wall.Seconds()
		m.met.runAllocBytes += rr.AllocBytes
		if rr.Err != nil {
			// RunOne only sets Err for a recovered panic.
			m.met.panicsRecovered++
			m.finishLocked(j, StateFailed, rr.Err.Error())
			m.mu.Unlock()
			return
		}
		m.mu.Unlock()
		results = append(results, rr)
	}

	payload := buildPayload(j, results)
	m.mu.Lock()
	if m.finishLocked(j, StateDone, "") {
		j.payload = payload
	}
	m.mu.Unlock()
}

// finishLocked moves a job to a terminal state exactly once; later calls
// (a detached child finishing after a timeout, a cancel racing
// completion) are no-ops. Returns whether this call performed the
// transition.
func (m *Manager) finishLocked(j *job, state JobState, errMsg string) bool {
	if terminal(j.state) {
		return false
	}
	if j.state == StateRunning {
		m.inflight--
	}
	j.state = state
	j.errMsg = errMsg
	j.finished = time.Now()
	switch state {
	case StateDone:
		m.met.jobsDone++
	case StateFailed:
		m.met.jobsFailed++
	case StateCanceled:
		m.met.jobsCanceled++
	}
	return true
}

// evictLocked bounds the job table: oldest finished jobs go first; queued
// and running jobs are never evicted.
func (m *Manager) evictLocked() {
	for len(m.order) > m.cfg.MaxJobs {
		evicted := false
		for i, id := range m.order {
			if terminal(m.jobs[id].state) {
				delete(m.jobs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is still pending
		}
	}
}

// Cancel cancels a job: a queued job finishes immediately, a running one
// is marked canceled and its worker detaches (the in-flight simulation is
// uninterruptible by design — see DESIGN.md, "Service layer" — so it
// completes in the background and is discarded). Canceling a finished job
// is a no-op. Returns the job's status after the cancel.
func (m *Manager) Cancel(id string) (*JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	if !terminal(j.state) && !j.canceled {
		j.canceled = true
		close(j.cancelCh)
		if j.state == StateQueued {
			m.finishLocked(j, StateCanceled, "canceled while queued")
		}
	}
	return m.statusLocked(j), nil
}

// Status returns one job's status.
func (m *Manager) Status(id string) (*JobStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, ErrNotFound
	}
	return m.statusLocked(j), nil
}

// Result returns a finished job's deterministic result payload. For jobs
// that are not done it returns the job state and false.
func (m *Manager) Result(id string) (*ResultPayload, JobState, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, "", ErrNotFound
	}
	if j.state != StateDone {
		return nil, j.state, nil
	}
	return j.payload, StateDone, nil
}

// List returns every retained job's status in submission order, plus the
// queue depth and whether the manager is draining.
func (m *Manager) List() ([]*JobStatus, int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*JobStatus, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.statusLocked(m.jobs[id]))
	}
	return out, len(m.queue), m.draining
}

// Draining reports whether the manager has stopped accepting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain stops accepting new jobs and waits for queued and running work to
// finish. If ctx expires first, everything still pending is canceled
// (running jobs detach) and ctx's error is returned alongside the number
// of jobs canceled.
func (m *Manager) Drain(ctx context.Context) (canceled int, err error) {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		m.mu.Lock()
		idle := m.inflight == 0 && len(m.queue) == 0
		m.mu.Unlock()
		if idle {
			return canceled, nil
		}
		select {
		case <-ctx.Done():
			m.mu.Lock()
			for _, id := range m.order {
				j := m.jobs[id]
				if terminal(j.state) || j.canceled {
					continue
				}
				j.canceled = true
				close(j.cancelCh)
				if j.state == StateQueued {
					m.finishLocked(j, StateCanceled, "canceled by drain deadline")
				}
				canceled++
			}
			m.mu.Unlock()
			return canceled, ctx.Err()
		case <-tick.C:
		}
	}
}

// Close drains with the given grace period and stops the workers. Only
// cmd/ffserved's shutdown path and tests call it; the manager is not
// reusable afterwards.
func (m *Manager) Close(grace time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	m.Drain(ctx)
	m.mu.Lock()
	already := m.closed
	m.closed = true
	m.mu.Unlock()
	if !already {
		close(m.queue)
	}
	m.wg.Wait()
}

// JobStatus is the job-lifecycle view the API serves. It includes
// wall-clock observations (timestamps, wall_ms), so it is NOT part of the
// byte-identity contract — that is ResultPayload's job.
type JobStatus struct {
	ID         string     `json:"id"`
	State      JobState   `json:"state"`
	Experiment string     `json:"experiment"`
	SpecDigest string     `json:"spec_digest"`
	Request    JobRequest `json:"request"`
	RunsTotal  int        `json:"runs_total"`
	RunsDone   int        `json:"runs_done"`
	PoolHits   int        `json:"pool_hits"`
	PoolMisses int        `json:"pool_misses"`
	Created    time.Time  `json:"created"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
	WallMS     float64    `json:"wall_ms"`
	AllocMB    float64    `json:"alloc_mb"`
	Error      string     `json:"error,omitempty"`
}

func (m *Manager) statusLocked(j *job) *JobStatus {
	st := &JobStatus{
		ID:         j.id,
		State:      j.state,
		Experiment: jobExperiment(&j.req),
		SpecDigest: j.digest,
		Request:    j.req,
		RunsTotal:  j.runsTotal,
		RunsDone:   j.runsDone,
		PoolHits:   j.poolHits,
		PoolMisses: j.poolMisses,
		Created:    j.created,
		WallMS:     float64(j.wall.Microseconds()) / 1e3,
		AllocMB:    float64(j.allocBytes) / (1 << 20),
		Error:      j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

func jobExperiment(req *JobRequest) string {
	if req.Experiment != "" {
		return req.Experiment
	}
	return "scenario"
}

// ResultPayload is the deterministic result of a done job: only
// seed-determined data, no wall-clock or scheduling observations, so
// identical spec digests yield byte-identical payloads however and
// whenever the job ran.
type ResultPayload struct {
	Experiment string `json:"experiment"`
	SpecDigest string `json:"spec_digest"`
	// Runs holds one entry per executed spec, in seed order: the exact
	// text ffbench would print and the run's headline metrics
	// (encoding/json emits map keys sorted, keeping the bytes canonical).
	Runs []RunPayload `json:"runs"`
	// Aggregates are cross-seed mean/stddev per metric, present when more
	// than one run contributed.
	Aggregates map[string]AggPayload `json:"aggregates,omitempty"`
	// ShapeErrors are violated qualitative checks
	// (experiment.ShapeChecks), empty for a healthy run.
	ShapeErrors []string `json:"shape_errors"`
}

// RunPayload is one seed's deterministic result.
type RunPayload struct {
	Seed    int64              `json:"seed"`
	Text    string             `json:"text"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// AggPayload mirrors experiment.Agg for the JSON surface.
type AggPayload struct {
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	N      int     `json:"n"`
}

func buildPayload(j *job, results []experiment.RunResult) *ResultPayload {
	p := &ResultPayload{
		Experiment:  jobExperiment(&j.req),
		SpecDigest:  j.digest,
		Runs:        make([]RunPayload, 0, len(results)),
		ShapeErrors: []string{},
	}
	for _, rr := range results {
		p.Runs = append(p.Runs, RunPayload{
			Seed:    rr.Seed,
			Text:    rr.Result.String(),
			Metrics: rr.Result.Metrics,
		})
	}
	agg := experiment.Aggregate(results)
	if byName := agg[j.def.ID]; len(byName) > 0 && len(results) > 1 {
		p.Aggregates = make(map[string]AggPayload, len(byName))
		for _, name := range experiment.MetricNames(byName) {
			a := byName[name]
			p.Aggregates[name] = AggPayload{Mean: a.Mean, Stddev: a.Stddev, N: a.N}
		}
	}
	if errs := experiment.ShapeChecks(agg); len(errs) > 0 {
		p.ShapeErrors = errs
	}
	return p
}

// uptime and queue shape for /metrics and /healthz.
func (m *Manager) snapshot() (met counters, ps poolStats, inflight, queueDepth, queueCap, workers int, draining bool, uptime time.Duration) {
	ps = m.pool.stats()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.met, ps, m.inflight, len(m.queue), m.cfg.QueueDepth, m.cfg.Workers, m.draining, time.Since(m.start)
}
