package sim

import "repro/internal/wpu"

// SkippedCycles exposes to the external tests how many cycles the run loop
// moved the clock over without simulating them.
func (s *System) SkippedCycles() uint64 { return s.skipped }

// Roster exposes to the external tests the account run reads each cycle.
func (s *System) Roster() *wpu.Roster { return &s.roster }
