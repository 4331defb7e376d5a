package experiment

import "fastflex/internal/core"

// Warm-fabric reuse. Building a fabric — topology attach, switch and
// router construction, dense FIB compilation, booster placement, pipeline
// compilation — dominates the wall time of short runs and multi-seed
// sweeps now that the steady state is allocation-free. core.(*Fabric).Reset
// rewinds a built fabric to its pre-run state in O(touched) with
// byte-identical re-run output (pinned by the reset-vs-fresh goldens in
// golden_reset_test.go), which turns a finished run's fabric into a warm
// spare for the next run of the same shape. The types here are the seam
// front ends share: the Runner hands each worker a private FabricCache,
// and ffserved's pool implements FabricSource with exclusive leases.

// WarmFabric couples a built fabric with the topology it was built over
// and the FabricKey identifying its build-time configuration.
type WarmFabric struct {
	Key  string
	Topo *Fig3Topology
	Fab  *core.Fabric
}

// FabricSource supplies warm fabrics to runs. Checkout hands over a
// fabric for exclusive use (nil on miss — the caller cold-builds);
// Checkin returns it, possibly a newly built one, once the run has
// finished with it. A checked-out fabric is owned by exactly one run at a
// time: the simulation below the concurrency boundary is strictly
// single-threaded, so sharing a live fabric is a data race by definition.
//
// The caller — not the source — resets the fabric to its run's seed after
// checkout, and falls back to a cold build if the reset is refused (the
// fabric was reconfigured since build). Sources may additionally reset on
// checkin to validate cleanliness early and drop dirty entries.
type FabricSource interface {
	Checkout(key string) *WarmFabric
	Checkin(wf *WarmFabric)
}

// FabricCache is the repository's one LRU of idle warm fabrics, and by
// itself a worker-local FabricSource. It is deliberately NOT safe for
// concurrent use — each Runner worker owns one, which keeps reuse strictly
// worker-local and preserves the concurrency boundary (no simulation
// object ever crosses goroutines); ffserved's pool holds one under its own
// mutex and adds leases on top. Checkout removes the entry, so even a
// buggy double-checkout of one key yields two independent fabrics, never
// a shared one.
type FabricCache struct {
	// Max bounds retained idle fabrics (default 4 when constructed with
	// NewFabricCache): a worker sweeping seeds touches few distinct shapes,
	// and an unbounded cache would pin every shape ever run.
	Max     int
	entries map[string]*WarmFabric
	order   []string // LRU order: least recently used first

	Hits, Misses, Evictions uint64
}

// NewFabricCache returns a cache bounded to max idle fabrics (<=0 takes
// the default of 4).
func NewFabricCache(max int) *FabricCache {
	if max <= 0 {
		max = 4
	}
	return &FabricCache{Max: max, entries: make(map[string]*WarmFabric)}
}

// Checkout implements FabricSource: the entry leaves the cache.
func (c *FabricCache) Checkout(key string) *WarmFabric {
	wf := c.entries[key]
	if wf == nil {
		c.Misses++
		return nil
	}
	c.Hits++
	delete(c.entries, key)
	c.remove(key)
	return wf
}

// Checkin implements FabricSource: the fabric becomes the most recently
// used idle entry; the least recently used one is dropped past the bound.
// A second checkin under an already-occupied key keeps the resident entry
// (they are interchangeable by construction) and drops the newcomer.
func (c *FabricCache) Checkin(wf *WarmFabric) {
	if wf == nil || wf.Fab == nil {
		return
	}
	if c.entries == nil {
		c.entries = make(map[string]*WarmFabric)
	}
	if c.Max <= 0 {
		c.Max = 4
	}
	if _, ok := c.entries[wf.Key]; ok {
		return
	}
	c.entries[wf.Key] = wf
	c.order = append(c.order, wf.Key)
	if len(c.order) > c.Max {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
		c.Evictions++
	}
}

// Len returns the number of idle fabrics held.
func (c *FabricCache) Len() int { return len(c.entries) }

func (c *FabricCache) remove(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}
