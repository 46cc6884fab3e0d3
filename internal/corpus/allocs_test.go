package corpus_test

import (
	"bytes"
	"testing"

	"exactdep/internal/corpus"
)

// TestLoadStoreAllocs gates the snapshot decoder at a fixed number of
// allocations per unit — a name and one slab each for the results,
// vectors, direction bytes, distance levels and distance values — on
// corpus-edit's shape (32 units of 256 results) and on LargeCorpus's (3,553
// units of one or a few results): the count must not grow with the
// results, vectors or distances a unit holds. Part of the Makefile
// allocgate.
func TestLoadStoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	for name, fx := range map[string]storeFixture{"edit shape": editStore(), "large": largeStore()} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := corpus.LoadStore(bytes.NewReader(fx.snap), storeOpts); err != nil {
				t.Fatal(err)
			}
		})
		if perUnit := allocs / float64(fx.store.Len()); perUnit > 8 {
			t.Errorf("%s: LoadStore makes %.0f allocations for %d units (%.1f per unit), want at most 8 per unit",
				name, allocs, fx.store.Len(), perUnit)
		}
	}
}

// TestServeAllocs gates Serve at four allocations per unit — the results
// and one slab each for their vectors, direction bytes and distances — on
// corpus-edit's shape, whatever the unit holds. Part of the Makefile
// allocgate.
func TestServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	fx := editStore()
	for i := range fx.units {
		var f corpus.Fingerprinter
		fx.units[i].Fingerprint(&f) // cache the fingerprints before counting
	}
	allocs := testing.AllocsPerRun(5, func() { serveAll(t, fx) })
	if perUnit := allocs / float64(len(fx.units)); perUnit > 4 {
		t.Errorf("serving %d units makes %.0f allocations (%.1f per unit), want at most 4 per unit",
			len(fx.units), allocs, perUnit)
	}
}
