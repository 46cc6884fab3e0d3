//go:build race

package core_test

// raceEnabled lets allocation-count tests skip themselves under the race
// detector, whose instrumentation allocates.
const raceEnabled = true
