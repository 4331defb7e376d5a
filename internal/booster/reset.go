package booster

// Run-reset support: every booster PPM implements dataplane.RunResettable so
// a warm switch can rewind to its just-built state between simulation runs
// (dataplane.Switch.ResetRun, driven by core.Fabric.Reset). The invariant
// each method maintains: state derived from the constructor's configuration
// survives (protected prefixes, thresholds, wired callbacks like Alarm and
// ExternalEvidence — the fabric installs those once, at build), while
// everything a run's traffic mutates — tables, epochs, lease clocks, and
// counters — clears, leaving the module indistinguishable from a freshly
// constructed one.

// ResetRun implements dataplane.RunResettable.
func (h *HeavyHitter) ResetRun() {
	h.pipe.Reset()
	h.banned.Reset()
	h.epochEnds = 0
	h.lastAssert = 0
	h.active = false
	h.Alarms, h.Clears, h.Flagged = 0, 0, 0
}

// ResetRun implements dataplane.RunResettable. The suspicion slice keeps
// its capacity (zeroed values are equivalent to absent ones: lookups bound-
// check and treat 0 as unsuspicious) so re-runs do not re-grow it.
func (d *LFADetector) ResetRun() {
	d.flows.Reset()
	for i := range d.suspSrc {
		d.suspSrc[i] = 0
	}
	d.lastEval = 0
	d.calmSince = 0
	d.lastAssert = 0
	d.lastEvidence = 0
	d.attackActive = false
	d.marked = false
	d.raiseTimes = d.raiseTimes[:0]
	d.Alarms, d.Clears = 0, 0
	d.Suspicious = 0
}

// ResetRun implements dataplane.RunResettable.
func (d *Dropper) ResetRun() {
	d.DroppedHigh, d.Limited = 0, 0
}

// ResetRun implements dataplane.RunResettable.
func (o *Obfuscator) ResetRun() {
	o.Fabricated = 0
}

// ResetRun implements dataplane.RunResettable.
func (r *Reroute) ResetRun() {
	r.clearTable()
	r.lastProbe = 0
	r.seq = 0
	r.flowlets.Reset()
	r.Rerouted, r.Probes, r.Flowlets = 0, 0, 0
}
