package serve

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"fastflex/internal/experiment"
)

// Validation bounds for inline scenarios. They exist so one tenant cannot
// submit a spec whose build alone exhausts the daemon's memory; raising
// them is a deliberate act, not a request parameter.
const (
	maxSeeds      = 64
	maxHosts      = 4096
	maxRegions    = 64
	maxRegionSize = 64
	maxShards     = 16
	maxHorizon    = time.Hour
	// maxPeriodTicks bounds how often a periodic scenario parameter
	// (sampling, baseline TE recomputation, attacker scouting) may fire
	// over the run: the default 1 s sampling at the horizon cap. A
	// shorter period asks a worker for proportionally more result rows,
	// TE solves or traceroute rounds.
	maxPeriodTicks = 3600
	// defaultHorizon is Figure3Config's horizon when duration_sec is 0.
	defaultHorizon = 120 * time.Second
)

// JobRequest is the body of POST /v1/jobs: exactly one of Experiment
// (a registry id, see GET /v1/experiments) or Scenario (an inline
// Figure-3-style scenario) must be set. The normalized request — defaults
// applied — is echoed back in job status, and its canonical JSON is the
// spec digest, so two requests with the same digest are guaranteed the
// same result bytes.
type JobRequest struct {
	// Experiment is a registry experiment id ("fig3", "a6", ...).
	Experiment string `json:"experiment,omitempty"`
	// Scenario is an inline scenario; mutually exclusive with Experiment.
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
	// Seeds lists the seeds to run (default [1]). Unseeded registry
	// experiments run once regardless.
	Seeds []int64 `json:"seeds,omitempty"`
	// Short selects the registry experiment's cut-down CI variant when it
	// has one; ignored for inline scenarios (set a shorter horizon
	// instead).
	Short bool `json:"short,omitempty"`
	// TimeoutSec caps the job's wall-clock time. 0 means the server
	// default; values above the server default are rejected.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// ScenarioSpec is an inline Figure-3-style scenario: a topology to build,
// an attack to launch against it, which boosters to field, and the horizon
// to simulate. Zero values take the same defaults the registry "fig3"
// experiment uses (Figure3Config.fillDefaults).
type ScenarioSpec struct {
	Topology TopologySpec `json:"topology"`
	Attack   AttackSpec   `json:"attack"`
	Boosters BoosterSpec  `json:"boosters"`
	// Defense selects the arm: "compare" (default) runs all three arms
	// side by side like Figure 3; "fastflex", "baseline-sdn", and
	// "undefended" run one arm.
	Defense string `json:"defense,omitempty"`
	// DurationSec is the simulated horizon (default 120).
	DurationSec float64 `json:"duration_sec,omitempty"`
	// SampleEverySec is the throughput sampling period (default 1).
	SampleEverySec float64 `json:"sample_every_sec,omitempty"`
	// BaselinePeriodSec is the baseline SDN controller's reconfiguration
	// period (default 30).
	BaselinePeriodSec float64 `json:"baseline_period_sec,omitempty"`
	// UserRateBps is the offered rate per normal user flow (default 5e6).
	UserRateBps float64 `json:"user_rate_bps,omitempty"`
	// Shards is the engine's worker count for this job (0 and 1 both
	// mean one). Results are identical for every value (DESIGN.md,
	// "Sharded conservative engine").
	Shards int `json:"shards,omitempty"`
}

// TopologySpec picks and sizes the topology builder.
type TopologySpec struct {
	// Kind is "figure2" (default: the paper's victim network) or
	// "multiregion" (the ISP-scale variant).
	Kind string `json:"kind,omitempty"`
	// Regions and RegionSize size the multiregion variant (defaults 4, 8).
	Regions    int `json:"regions,omitempty"`
	RegionSize int `json:"region_size,omitempty"`
	// Users, Bots, Servers are host counts (defaults 8, 40, 8).
	Users   int `json:"users,omitempty"`
	Bots    int `json:"bots,omitempty"`
	Servers int `json:"servers,omitempty"`
}

// AttackSpec parameterizes the rolling Crossfire attack controller.
type AttackSpec struct {
	// StartSec / StopSec bound the attack window (defaults 20 / horizon).
	StartSec float64 `json:"start_sec,omitempty"`
	StopSec  float64 `json:"stop_sec,omitempty"`
	// BotRateBps per bot flow (default 1.5e6, under the detector ceiling).
	BotRateBps float64 `json:"bot_rate_bps,omitempty"`
	// FlowsPerBot (default 2) and TargetLinks (default 1).
	FlowsPerBot int `json:"flows_per_bot,omitempty"`
	TargetLinks int `json:"target_links,omitempty"`
	// ScoutEverySec is the attacker's re-targeting period (default 8).
	ScoutEverySec float64 `json:"scout_every_sec,omitempty"`
}

// BoosterSpec toggles individual defenses out of the FastFlex catalog,
// mirroring the A6 ablation knobs.
type BoosterSpec struct {
	DisableObfuscation bool `json:"disable_obfuscation,omitempty"`
	DisableDropper     bool `json:"disable_dropper,omitempty"`
	// RerouteAll disables pinning of established normal flows.
	RerouteAll bool `json:"reroute_all,omitempty"`
}

// badRequest is a request validation error: the HTTP layer maps it to 400.
type badRequest struct{ msg string }

func (e badRequest) Error() string { return e.msg }

func badReqf(format string, args ...any) error {
	return badRequest{fmt.Sprintf(format, args...)}
}

// normalize validates the request against the manager's registry and
// limits and applies defaults in place, so the echoed request and the spec
// digest describe exactly what will run.
func (r *JobRequest) normalize(defs []experiment.Def, maxTimeout time.Duration) error {
	if (r.Experiment == "") == (r.Scenario == nil) {
		return badReqf("exactly one of \"experiment\" and \"scenario\" must be set")
	}
	if r.Experiment != "" {
		found := false
		for _, d := range defs {
			if strings.EqualFold(d.ID, r.Experiment) {
				r.Experiment = d.ID
				found = true
				break
			}
		}
		if !found {
			return badReqf("unknown experiment %q (see GET /v1/experiments)", r.Experiment)
		}
	}
	if len(r.Seeds) == 0 {
		r.Seeds = []int64{1}
	}
	if len(r.Seeds) > maxSeeds {
		return badReqf("%d seeds exceeds the limit of %d", len(r.Seeds), maxSeeds)
	}
	for _, s := range r.Seeds {
		if s < 1 {
			return badReqf("seed %d: seeds must be >= 1", s)
		}
	}
	if r.TimeoutSec < 0 {
		return badReqf("timeout_sec must be >= 0")
	}
	if max := maxTimeout.Seconds(); r.TimeoutSec > max {
		return badReqf("timeout_sec %.0f exceeds the server maximum %.0f", r.TimeoutSec, max)
	}
	if r.Scenario != nil {
		if err := r.Scenario.validate(); err != nil {
			return err
		}
		// Exercise the translation once so impossible configs fail at
		// submit time, not inside a worker.
		if _, err := r.Scenario.config(r.Seeds[0]); err != nil {
			return err
		}
	}
	return nil
}

func (s *ScenarioSpec) validate() error {
	t := s.Topology
	switch t.Kind {
	case "", "figure2", "multiregion":
	default:
		return badReqf("topology.kind %q: want \"figure2\" or \"multiregion\"", t.Kind)
	}
	if t.Users < 0 || t.Bots < 0 || t.Servers < 0 {
		return badReqf("topology host counts must be >= 0")
	}
	if t.Users > maxHosts || t.Bots > maxHosts || t.Servers > maxHosts {
		return badReqf("topology host counts are capped at %d", maxHosts)
	}
	if t.Regions < 0 || t.Regions > maxRegions {
		return badReqf("topology.regions is capped at %d", maxRegions)
	}
	if t.RegionSize < 0 || t.RegionSize > maxRegionSize {
		return badReqf("topology.region_size is capped at %d", maxRegionSize)
	}
	if (t.Regions > 0 || t.RegionSize > 0) && t.Kind != "multiregion" {
		return badReqf("topology.regions/region_size require kind \"multiregion\"")
	}
	switch s.Defense {
	case "", "compare", "fastflex", "baseline-sdn", "undefended":
	default:
		return badReqf("defense %q: want \"compare\", \"fastflex\", \"baseline-sdn\", or \"undefended\"", s.Defense)
	}
	if s.DurationSec < 0 || s.DurationSec > maxHorizon.Seconds() {
		return badReqf("duration_sec must be within (0, %.0f]", maxHorizon.Seconds())
	}
	if s.Shards < 0 || s.Shards > maxShards {
		return badReqf("shards must be within [0, %d]", maxShards)
	}
	if s.Attack.StartSec < 0 || s.Attack.StopSec < 0 || s.Attack.ScoutEverySec < 0 ||
		s.Attack.BotRateBps < 0 || s.Attack.FlowsPerBot < 0 || s.Attack.TargetLinks < 0 ||
		s.UserRateBps < 0 {
		return badReqf("attack/traffic parameters must be >= 0")
	}
	if s.SampleEverySec < 0 || s.BaselinePeriodSec < 0 {
		return badReqf("sample_every_sec and baseline_period_sec must be >= 0")
	}
	horizon := s.DurationSec
	if horizon == 0 {
		horizon = defaultHorizon.Seconds()
	}
	for _, p := range []struct {
		name string
		sec  float64
	}{
		{"sample_every_sec", s.SampleEverySec},
		{"baseline_period_sec", s.BaselinePeriodSec},
		{"attack.scout_every_sec", s.Attack.ScoutEverySec},
	} {
		if p.sec > 0 && horizon/p.sec > maxPeriodTicks {
			return badReqf("%s must be >= %g for a %g s horizon (at most %d periods per run)",
				p.name, horizon/maxPeriodTicks, horizon, maxPeriodTicks)
		}
	}
	return nil
}

// config translates the scenario into the Figure3Config a run at the given
// seed executes. The zero fields fall through to Figure3Config's own
// defaults, so an empty scenario is exactly the registry "fig3" run.
func (s *ScenarioSpec) config(seed int64) (experiment.Figure3Config, error) {
	sec := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
	cfg := experiment.Figure3Config{
		Seed:        seed,
		Duration:    sec(s.DurationSec),
		AttackStart: sec(s.Attack.StartSec),
		AttackStop:  sec(s.Attack.StopSec),

		Users:   s.Topology.Users,
		Bots:    s.Topology.Bots,
		Servers: s.Topology.Servers,

		UserRateBps: s.UserRateBps,
		BotRateBps:  s.Attack.BotRateBps,
		FlowsPerBot: s.Attack.FlowsPerBot,
		ScoutEvery:  sec(s.Attack.ScoutEverySec),
		TargetLinks: s.Attack.TargetLinks,

		BaselinePeriod: sec(s.BaselinePeriodSec),
		SampleEvery:    sec(s.SampleEverySec),

		RerouteAllOverride: s.Boosters.RerouteAll,
		DisableObfuscation: s.Boosters.DisableObfuscation,
		DisableDropper:     s.Boosters.DisableDropper,

		Shards: s.Shards,
	}
	if s.Topology.Kind == "multiregion" {
		cfg.LargeRegions = s.Topology.Regions
		if cfg.LargeRegions == 0 {
			cfg.LargeRegions = 4
		}
		cfg.RegionSize = s.Topology.RegionSize
	}
	if cfg.AttackStop != 0 && cfg.AttackStop <= cfg.AttackStart {
		return cfg, badReqf("attack.stop_sec must be after attack.start_sec")
	}
	return cfg, nil
}

// def is the experiment definition an admitted scenario runs as: one arm,
// or the three-arm comparison, of Figure 3 at the translated config. The
// arms record the same headline metrics the registry experiments do, so
// aggregation and shape checks work uniformly.
func (s *ScenarioSpec) def() experiment.Def {
	return experiment.Def{
		ID: "scenario", Desc: "inline scenario", Seeded: true,
		Run: func(o experiment.RunOpts) *experiment.Result {
			cfg, err := s.config(o.Seed)
			if err != nil {
				// normalize already ran the translation; this cannot
				// trip for an admitted job.
				panic(fmt.Sprintf("serve: translating admitted scenario: %v", err))
			}
			cfg.Fabrics = o.Fabrics
			switch s.Defense {
			case "fastflex":
				cfg.Defense = experiment.DefenseFastFlex
			case "baseline-sdn":
				cfg.Defense = experiment.DefenseBaseline
			case "undefended":
				cfg.Defense = experiment.DefenseNone
			default: // "", "compare"
				return experiment.Figure3Compare(cfg)
			}
			return &experiment.Figure3(cfg).Result
		},
	}
}

// digest returns the canonical fingerprint of a normalized request:
// FNV-64a over its canonical JSON (struct fields marshal in declaration
// order, map-free), hex encoded. Equal digests guarantee byte-identical
// result payloads.
func (r *JobRequest) digest() string {
	buf, err := json.Marshal(r)
	if err != nil {
		// A JobRequest is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("serve: marshaling normalized request: %v", err))
	}
	h := fnv.New64a()
	h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}
