//go:build !race

package lang

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
