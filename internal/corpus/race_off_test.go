//go:build !race

package corpus_test

// raceEnabled lets allocation-count tests skip themselves under the race
// detector, whose instrumentation allocates.
const raceEnabled = false
