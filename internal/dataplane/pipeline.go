package dataplane

// Mode-epoch pipeline compilation.
//
// The interpreter the switch shipped with walked the installed program list
// per packet, testing each program's mode gate and calling PPM.Process
// through the interface — per-packet work that real RMT hardware does once,
// at program-compile time, by staging a concrete match-action pipeline.
// Here the equivalent: whenever the mode set changes (an RTT-timescale
// event, §3.2) the switch compiles the programs that are active under that
// mode set into a flat []pipelineStep of method values. The per-packet loop
// in Switch.Process then makes one func-value call per stage: no mode-gate
// evaluation and no map access. Each step is an interface method value
// (p.PPM.Process), so every stage still dispatches through the PPM
// interface, behind the one wrapper Go shares for all of them; binding each
// stage to its concrete method measured within noise (ROADMAP item 10).
//
// Compilations are cached per ModeSet, so a mode flapping on and off (the
// common attack-on/attack-off cycle of Figure 3) compiles twice total, not
// twice per flap. Install/Uninstall changes what any mode set means, so it
// bumps the epoch and drops the whole cache.

// pipelineStep is one compiled stage: the interface method value of the
// PPM's Process, its receiver fixed at compile time. A struct (rather than a
// bare func type) keeps room for per-stage metadata without touching the
// hot loop's call shape.
type pipelineStep struct {
	run func(*Context) Verdict
}

// Epoch returns the switch's pipeline-compilation generation. It increments
// on every Install/Uninstall (the events that invalidate all cached
// compilations); mode changes reuse cache entries within an epoch.
func (s *Switch) Epoch() uint64 { return s.epoch }

// recompile points s.active at the compiled pipeline for the current mode
// set, compiling and caching it on first use.
func (s *Switch) recompile() {
	if s.pipelines == nil {
		s.pipelines = make(map[ModeSet][]pipelineStep, 4)
	}
	if steps, ok := s.pipelines[s.modes]; ok {
		s.active = steps
		return
	}
	steps := make([]pipelineStep, 0, len(s.programs))
	for _, p := range s.programs {
		if s.modeMatch(p.Modes) {
			steps = append(steps, pipelineStep{run: p.PPM.Process})
		}
	}
	s.pipelines[s.modes] = steps
	s.active = steps
}

// invalidatePipelines drops every cached compilation and recompiles for the
// current mode set. Called on Install/Uninstall, which change the meaning
// of every mode set.
func (s *Switch) invalidatePipelines() {
	s.epoch++
	s.pipelines = nil
	s.recompile()
}
