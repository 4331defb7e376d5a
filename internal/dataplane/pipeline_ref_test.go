package dataplane

// processInterpreted is the retired per-packet interpreter, kept as a
// differential oracle for the compiled pipeline: tests drive the same
// packets through both paths and require identical verdicts and context
// mutations.
func (s *Switch) processInterpreted(ctx *Context) Verdict {
	s.Processed++
	for _, p := range s.programs {
		if !s.modeMatch(p.Modes) {
			continue
		}
		switch v := p.PPM.Process(ctx); v {
		case Drop:
			s.Dropped++
			return Drop
		case Consume:
			return Consume
		}
	}
	return Continue
}
