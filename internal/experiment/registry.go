package experiment

import "time"

// Def describes one registered experiment: the unit ffbench lists, the
// Runner schedules, and CI smoke-tests.
type Def struct {
	// ID is the stable short name ("fig3", "a5", ...).
	ID string
	// Desc is the one-line description shown by ffbench -list.
	Desc string
	// Seeded reports whether the result varies with the seed. Unseeded
	// experiments (pure resource-accounting tables) run once regardless of
	// how many seeds were requested.
	Seeded bool
	// HasShort reports whether Run honours RunOpts.Short with a cut-down
	// variant (for listings; Run itself just reads the option).
	HasShort bool
	// Run executes the experiment. It is the one run path: every front end
	// (ffbench's Runner, ffserved, tests) calls it with the options it has
	// and leaves the rest zero.
	Run func(RunOpts) *Result
}

// RunOpts is everything a front end can vary about one registry run.
type RunOpts struct {
	// Seed of the run; unseeded experiments ignore it.
	Seed int64
	// Short selects the cut-down CI variant (ffbench -short) where the
	// experiment has one: same code paths and shape checks, much shorter
	// simulated horizon.
	Short bool
	// Shards is the engine shard count for the experiments that expose it
	// (fig3x, fig3f, a6): 0 the serial engine, K >= 1 the windowed sharded
	// engine. Serial and sharded runs order events differently (different
	// bytes, goldens pinned per mode); every K >= 1 gives identical bytes.
	Shards int
	// Fabrics, when non-nil, is where the run may check warm fabrics out
	// and back in. Results are byte-identical with and without it (the
	// reset contract); only setup wall time changes.
	Fabrics FabricSource
}

// Fig3Scenario returns the exact Figure3Config behind a registry Figure-3
// experiment ("fig3" is the paper topology, "fig3x" the ISP-scale
// multi-region variant used for parallel speedup measurements: four remote
// regions feed the victim region over the backbone, with enough bots that
// most simulated work happens outside the victim region). Other front ends
// (ffserved, the benchmark) call this to rebuild the same run without
// duplicating these numbers, which is what keeps their results
// byte-identical to ffbench's. The engine shard count is the caller's to
// set (the registry passes RunOpts.Shards to fig3x only). short selects the
// cut-down CI variant: the horizon shrinks from 120 s to 30 s of simulated
// time, long enough for the attack to land and the defense to respond so
// the shape checks still discriminate. The second return is false when id
// is not a Figure-3 scenario.
func Fig3Scenario(id string, seed int64, short bool) (Figure3Config, bool) {
	var cfg Figure3Config
	switch id {
	case "fig3":
		cfg = Figure3Config{Seed: seed}
	case "fig3x":
		cfg = Figure3Config{
			Seed:         seed,
			LargeRegions: 4,
			RegionSize:   10,
			Users:        16,
			Servers:      8,
			Bots:         96,
		}
	default:
		return Figure3Config{}, false
	}
	if short {
		cfg.Duration = 30 * time.Second
		cfg.AttackStart = 10 * time.Second
		cfg.ScoutEvery = 5 * time.Second
	}
	return cfg, true
}

// fig3Run runs the three-arm comparison of a Fig3Scenario id.
func fig3Run(id string, o RunOpts, shards int) *Result {
	cfg, _ := Fig3Scenario(id, o.Seed, o.Short)
	cfg.Shards, cfg.Fabrics = shards, o.Fabrics
	return Figure3Compare(cfg)
}

// fixed and seeded adapt experiments that take no options, or only a seed.
func fixed(run func() *Result) func(RunOpts) *Result {
	return func(RunOpts) *Result { return run() }
}

func seeded(run func(seed int64) *Result) func(RunOpts) *Result {
	return func(o RunOpts) *Result { return run(o.Seed) }
}

// Registry enumerates every experiment in the order EXPERIMENTS.md
// presents them. The order is part of the output contract: ffbench prints
// results in registry order no matter how many workers ran them, so serial
// and parallel runs produce byte-identical text.
func Registry() []Def {
	return []Def{
		{ID: "table1", Desc: "Figure 1(a): analyzer module resource table", Run: fixed(Table1Analyzer)},
		{ID: "fig1merge", Desc: "Figure 1(b): merged dataflow graph with sharing", Run: fixed(Figure1Merge)},
		{ID: "fig1place", Desc: "Figure 1(c): placement onto topologies", Run: fixed(Figure1Place)},
		{ID: "fig2", Desc: "Figure 2: multimode progression", Run: fixed(Figure2Modes)},
		{ID: "fig1d", Desc: "Figure 1(d): dynamic scaling at runtime", Run: fixed(Figure1dScale)},
		{ID: "fig3", Desc: "Figure 3: FastFlex vs baseline under rolling LFA", Seeded: true, HasShort: true,
			Run: func(o RunOpts) *Result { return fig3Run("fig3", o, 0) }},
		{ID: "fig3x", Desc: "Figure 3 at ISP scale: multi-region topology (sharded engine target)", Seeded: true, HasShort: true,
			Run: func(o RunOpts) *Result { return fig3Run("fig3x", o, o.Shards) }},
		{ID: "fig3f", Desc: "Figure 3 at planet scale: hybrid fluid/packet substrate, 10^6 modeled hosts", Seeded: true, HasShort: true,
			Run: func(o RunOpts) *Result {
				cfg := Figure3fConfig{Seed: o.Seed, Shards: o.Shards, Fabrics: o.Fabrics}
				if o.Short {
					cfg.HostsPerFlow, cfg.Duration, cfg.AttackStart = 250, 20*time.Second, 8*time.Second
				}
				return Figure3f(cfg)
			}},
		{ID: "a1", Desc: "A1: mode-change latency vs diameter", Run: fixed(AblationModeLatency)},
		{ID: "a2", Desc: "A2: PPM sharing", Run: fixed(AblationSharing)},
		{ID: "a3", Desc: "A3: placement policies", Run: fixed(AblationPlacement)},
		{ID: "a4", Desc: "A4: repurposing disruption vs fast reroute", Run: fixed(AblationRepurpose)},
		{ID: "a5", Desc: "A5: FEC for state transfer", Seeded: true, Run: seeded(AblationFEC)},
		{ID: "a6", Desc: "A6: pinning normal flows", Seeded: true, HasShort: true, Run: AblationPinning},
		{ID: "a7", Desc: "A7: stability under pulsing attacks", Seeded: true, Run: seeded(AblationStability)},
	}
}
