//go:build race

package lang

// raceEnabled reports whether the race detector is compiled in. Allocation
// assertions skip under it: the instrumentation allocates on its own, so
// testing.AllocsPerRun counts would be meaningless.
const raceEnabled = true
