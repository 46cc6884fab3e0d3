//go:build !race

package wire

// raceEnabled lets allocation-count tests skip themselves under the race
// detector, whose instrumentation allocates.
const raceEnabled = false
