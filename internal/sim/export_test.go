package sim

// SkippedCycles exposes to the external tests how many cycles the run loop
// moved the clock over without simulating them.
func (s *System) SkippedCycles() uint64 { return s.skipped }
