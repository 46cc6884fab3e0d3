package corpus_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// TestIndexHitAllocs gates serving a Dir unit through the store's file
// index at a fixed number of allocations however many pairs the unit
// holds: the run reads and digests the file but builds no IR, and Serve
// carves the results off its slabs. Part of the Makefile allocgate.
func TestIndexHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	var counts []float64
	for _, nests := range []int{1, 16, 128} {
		root := t.TempDir()
		var src strings.Builder
		for i := 0; i < nests; i++ {
			fmt.Fprintf(&src, "for i = 1 to 100\n  a%d[i+1] = a%d[i] + 1\nend\n", i, i)
		}
		if err := os.WriteFile(filepath.Join(root, "u.loop"), []byte(src.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		d := corpus.NewDriver(storeOpts, 1)
		if err := d.SetStore(corpus.NewStore(storeOpts)); err != nil {
			t.Fatal(err)
		}
		ctx, dir := context.Background(), corpus.Dir(root)
		emit := func(corpus.UnitResult) error { return nil }
		if err := d.Run(ctx, dir, emit); err != nil { // fills the store and the index
			t.Fatal(err)
		}
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if err := d.Run(ctx, dir, emit); err != nil || d.Stats.UnitsIndexed != 1 {
				t.Fatalf("warm run: %v, stats %+v", err, d.Stats)
			}
		}))
	}
	for i := range counts {
		if counts[i] != counts[0] {
			t.Fatalf("serving a unit of 2, 32 and 256 pairs through the index makes %v allocations, want one count", counts)
		}
	}
}
