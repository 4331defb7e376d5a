package serve

import (
	"sync"

	"fastflex/internal/experiment"
)

// enginePool caches warm, fully built *fabrics* keyed by their build
// configuration (experiment.Figure3Config.FabricKey), so a daemon serving
// many tenants does not cold-build switches, routers, dense FIBs, and
// compiled pipelines per request. A fabric is live simulation state: an
// entry is exclusively LEASED to one run at a time — checkout removes it
// from the pool, checkin returns it.
// Concurrent same-key jobs simply miss and cold-build, exactly as a cold
// daemon would (their fabrics are all checked in afterwards; the pool
// keeps one per key and drops the rest).
//
// On checkin the fabric is reset (core.(*Fabric).Reset), which both
// validates it is reusable — a reconfigured fabric is refused and
// dropped, never pooled — and rewinds its run state so checkout-side
// turnaround is one more cheap reset to the run's seed. Runs over a
// pooled fabric are byte-identical to cold builds (the reset contract,
// pinned by experiment's reset-vs-fresh goldens).
//
// The idle set is an experiment.FabricCache — the one LRU over warm
// fabrics — held under this pool's mutex: under a one-off scan of cold
// shapes, the repeatedly leased hot shapes stay resident because every
// checkin refreshes recency. The pool adds what a shared daemon needs on
// top: the lock, lease accounting, and the reset at checkin.
type enginePool struct {
	mu      sync.Mutex
	idle    *experiment.FabricCache // hits, misses and evictions are its counters
	leased  map[string]int          // checkouts (incl. misses now building) not yet checked in
	leasedN int                     // sum over leased, kept inline for the /metrics gauge

	resets, resetFailures uint64
	leaseBusy             uint64 // misses while the key's fabric was leased out
}

// poolResetSeed is the seed idle fabrics are parked at. Arbitrary: every
// checkout resets again to the run's own seed.
const poolResetSeed = 1

func newEnginePool(max int) *enginePool {
	if max < 1 {
		max = 1
	}
	return &enginePool{idle: experiment.NewFabricCache(max), leased: make(map[string]int)}
}

// Checkout leases the warm fabric under key to the caller, or returns nil
// when none is idle (cold or currently leased) — the caller builds its
// own and checks it in afterwards.
func (p *enginePool) Checkout(key string) *experiment.WarmFabric {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.leased[key]++
	p.leasedN++
	wf := p.idle.Checkout(key)
	if wf == nil && p.leased[key] > 1 {
		p.leaseBusy++
	}
	return wf
}

// Checkin returns a fabric — leased or freshly built — to the idle set.
// The reset runs before the pool lock is taken: until the entry is
// published the caller still owns the fabric exclusively. Fabrics that
// refuse the reset, or lose the one-idle-entry-per-key race (a sibling
// build already parked an interchangeable one), are dropped.
func (p *enginePool) Checkin(wf *experiment.WarmFabric) {
	if wf == nil || wf.Fab == nil {
		return
	}
	err := wf.Fab.Reset(poolResetSeed)

	p.mu.Lock()
	defer p.mu.Unlock()
	p.releaseLocked(wf.Key)
	if err != nil {
		p.resetFailures++
		return
	}
	p.resets++
	p.idle.Checkin(wf)
}

// release ends a lease whose fabric will never be checked in: the run
// that held it panicked between checkout and checkin.
func (p *enginePool) release(key string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.releaseLocked(key)
}

func (p *enginePool) releaseLocked(key string) {
	if p.leased[key]--; p.leased[key] <= 0 {
		delete(p.leased, key)
	}
	p.leasedN--
}

// poolStats is a consistent snapshot for /metrics.
type poolStats struct {
	hits, misses, evictions uint64
	resets, resetFailures   uint64
	leaseBusy               uint64
	size, leased            int
}

func (p *enginePool) stats() poolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return poolStats{
		hits: p.idle.Hits, misses: p.idle.Misses, evictions: p.idle.Evictions,
		resets: p.resets, resetFailures: p.resetFailures,
		leaseBusy: p.leaseBusy,
		size:      p.idle.Len(), leased: p.leasedN,
	}
}
