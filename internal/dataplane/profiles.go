package dataplane

import "sort"

// Switch profiles: the resource classes <Θ1..Θk> a deployment may contain
// (§3.1). The scheduler can target any registered class, so offline
// verification (ppm.Lint) checks booster blueprints against every profile:
// a module that cannot fit the smallest deployed switch can never be
// placed pervasively.
var profiles = map[string]Resources{
	// tofino: the full RMT-style switch TofinoLike models.
	"tofino": TofinoLike(),
	// edge: a half-capacity access switch, the constrained end of the
	// sweep ablation A2 runs.
	"edge": {Stages: 8, SRAMKB: 8 * 1536, TCAM: 8 * 256, ALUs: 8 * 4},
}

// Profiles returns the registered switch profiles, keyed by name. The map
// is a copy; callers may not mutate the registry.
func Profiles() map[string]Resources {
	out := make(map[string]Resources, len(profiles))
	for k, v := range profiles {
		out[k] = v
	}
	return out
}

// ProfileNames returns the registered profile names in sorted order.
func ProfileNames() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
