package core

import (
	"math/rand"
	"testing"

	"exactdep/internal/dtest"
)

// TestDifferentialSeedSweep runs the boxed differential over several
// additional seeds at lower iteration counts — cheap extra assurance that
// the fixed-seed run is not a lucky draw.
func TestDifferentialSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short mode")
	}
	opts := Options{Memoize: true, ImprovedMemo: true,
		DirectionVectors: true, PruneUnused: true, PruneDistance: true}
	for _, seed := range []int64{2, 3, 5, 7, 11, 13, 17, 19} {
		rng := rand.New(rand.NewSource(seed))
		a := New(opts)
		for iter := 0; iter < 300; iter++ {
			pair := randNest(rng)
			wantDep, wantVecs := groundTruth(pair)
			res, err := a.AnalyzePair(pair)
			if err != nil {
				t.Fatalf("seed %d iter %d: %v", seed, iter, err)
			}
			switch res.Outcome {
			case dtest.Independent:
				if wantDep {
					t.Fatalf("seed %d iter %d: wrong independent\n%s", seed, iter, describe(pair))
				}
			case dtest.Dependent:
				if !wantDep {
					t.Fatalf("seed %d iter %d: wrong dependent\n%s", seed, iter, describe(pair))
				}
				got := expandStars(res.Vectors)
				for _, w := range wantVecs {
					if !got[w] {
						t.Fatalf("seed %d iter %d: missing vector %q (have %v)\n%s",
							seed, iter, w, res.Vectors, describe(pair))
					}
				}
			case dtest.Unknown:
				t.Fatalf("seed %d iter %d: unknown verdict\n%s", seed, iter, describe(pair))
			}
		}
	}
}
