package sched

// SetFixedStep forces (on) or releases (off) fixed stepping for engines
// built until the returned restore runs: the in-process reference for
// the paired strided-vs-fixed tests.
func SetFixedStep(on bool) (restore func()) {
	prev := fixedStep
	fixedStep = on
	return func() { fixedStep = prev }
}

// RaceEnabled exposes the race-build flag to the external test package.
const RaceEnabled = raceEnabled
