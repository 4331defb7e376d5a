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
