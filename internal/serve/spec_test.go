package serve

import (
	"strings"
	"testing"
	"time"

	"fastflex/internal/experiment"
)

// A negative period or count in an inline scenario is a 400 at submit
// time. Admitted, a negative sampling or controller period reaches the
// simulation's ticker, which panics inside the worker.
func TestNormalizeRejectsNegativeScenarioFields(t *testing.T) {
	defs := experiment.Registry()
	for _, c := range []struct {
		name string
		spec ScenarioSpec
	}{
		{"sample_every_sec", ScenarioSpec{SampleEverySec: -1}},
		{"baseline_period_sec", ScenarioSpec{BaselinePeriodSec: -30}},
		{"attack.flows_per_bot", ScenarioSpec{Attack: AttackSpec{FlowsPerBot: -2}}},
		{"attack.target_links", ScenarioSpec{Attack: AttackSpec{TargetLinks: -1}}},
	} {
		req := JobRequest{Scenario: &c.spec}
		err := req.normalize(defs, 10*time.Minute)
		if _, ok := err.(badRequest); !ok || !strings.Contains(err.Error(), "must be >= 0") {
			t.Errorf("negative %s: normalize = %v, want a bad request saying it must be >= 0", c.name, err)
		}
	}
}

// A positive sampling, TE or scouting period is bounded by how often it
// fires over the effective horizon (120 s when duration_sec is 0): at most
// maxPeriodTicks times. Admitted, sample_every_sec 1e-4 at the horizon cap
// and 64 seeds asks one worker for gigabytes of result rows.
func TestNormalizeBoundsScenarioPeriods(t *testing.T) {
	defs := experiment.Registry()
	for _, c := range []struct {
		name string
		spec ScenarioSpec
		ok   bool
	}{
		{"default sampling at the cap", ScenarioSpec{DurationSec: 3600, SampleEverySec: 1}, true},
		{"sampling just inside the default horizon", ScenarioSpec{SampleEverySec: 0.034}, true},
		{"registry-style periods", ScenarioSpec{DurationSec: 30, SampleEverySec: 1, BaselinePeriodSec: 30,
			Attack: AttackSpec{ScoutEverySec: 8}}, true},
		{"sample_every_sec", ScenarioSpec{SampleEverySec: 1e-4}, false},
		{"sample_every_sec", ScenarioSpec{SampleEverySec: 0.03}, false},
		{"sample_every_sec", ScenarioSpec{DurationSec: 3600, SampleEverySec: 0.5}, false},
		{"baseline_period_sec", ScenarioSpec{BaselinePeriodSec: 1e-3}, false},
		{"baseline_period_sec", ScenarioSpec{DurationSec: 3600, BaselinePeriodSec: 0.9}, false},
		{"attack.scout_every_sec", ScenarioSpec{Attack: AttackSpec{ScoutEverySec: 1e-3}}, false},
	} {
		req := JobRequest{Scenario: &c.spec}
		err := req.normalize(defs, 10*time.Minute)
		if c.ok {
			if err != nil {
				t.Errorf("%s: normalize = %v, want admitted", c.name, err)
			}
			continue
		}
		if _, ok := err.(badRequest); !ok || !strings.Contains(err.Error(), c.name+" must be >= ") {
			t.Errorf("%s %+v: normalize = %v, want a bad request naming its lower bound", c.name, c.spec, err)
		}
	}
}
