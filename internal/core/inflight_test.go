package core_test

// External test package, like concurrent_test.go: the hammer drives the
// concurrent driver over internal/workload's suite, which imports core.

import (
	"fmt"
	"testing"

	"exactdep/internal/core"
	"exactdep/internal/stats"
	"exactdep/internal/workload"
)

// TestAnalyzeAllInflightSingleSolve is the end-to-end hammer for the
// singleflight layer: a cold concurrent run over a highly repetitive
// workload (SR: 1,290 candidates, 14 unique patterns) must run the cascade
// exactly as many times as the serial pass does — one solve per unique
// canonical problem, never a duplicate from two workers racing the same key
// — while producing byte-identical results. Repeated with several worker
// counts and rounds for schedule variety; make race runs it under the race
// detector.
func TestAnalyzeAllInflightSingleSolve(t *testing.T) {
	s, ok := workload.ProgramByName("SR")
	if !ok {
		t.Fatal("SR missing from the suite")
	}
	cands, err := workload.Candidates(s, false)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Memoize: true, ImprovedMemo: true, DirectionVectors: true,
		PruneUnused: true, PruneDistance: true}

	serial := core.New(opts)
	want, err := serial.AnalyzeAll(cands, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTests := serial.Stats.TotalTests()
	if wantTests == 0 {
		t.Fatal("workload produced no cascade solves; hammer is vacuous")
	}

	for _, workers := range []int{2, 4, 8} {
		for round := 0; round < 3; round++ {
			par := core.New(opts)
			got, err := par.AnalyzeAll(cands, workers)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Fatalf("workers=%d round=%d: results differ from serial", workers, round)
			}
			if pt := par.Stats.TotalTests(); pt != wantTests {
				t.Fatalf("workers=%d round=%d: %d cascade solves, serial did %d — "+
					"singleflight failed to dedup a racing solve", workers, round, pt, wantTests)
			}
			checkHitInvariant(t, &par.Stats, workers, round)
		}
	}
}

// checkHitInvariant asserts the hit accounting contract under Memoize:
// every non-constant pair makes exactly one full-table lookup, and every
// adopted flight is a wait that ended in a hit.
func checkHitInvariant(t *testing.T, c *stats.Counters, workers, round int) {
	t.Helper()
	if c.FullLookups != c.Pairs-c.Constant {
		t.Fatalf("workers=%d round=%d: %d full lookups for %d non-constant pairs",
			workers, round, c.FullLookups, c.Pairs-c.Constant)
	}
	if c.InflightAdopts > c.InflightWaits {
		t.Fatalf("workers=%d round=%d: adopts %d > waits %d",
			workers, round, c.InflightAdopts, c.InflightWaits)
	}
	if c.InflightAdopts > c.FullHits {
		t.Fatalf("workers=%d round=%d: adopts %d > full hits %d",
			workers, round, c.InflightAdopts, c.FullHits)
	}
}

// TestAnalyzeAllInflightWarmReRun: re-running a warm analyzer must serve
// everything from the cache layers — no new solves, no leader elections
// surviving as duplicate work — and still match the cold results.
func TestAnalyzeAllInflightWarmReRun(t *testing.T) {
	s, ok := workload.ProgramByName("SR")
	if !ok {
		t.Fatal("SR missing from the suite")
	}
	cands, err := workload.Candidates(s, false)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Memoize: true, ImprovedMemo: true}
	a := core.New(opts)
	cold, err := a.AnalyzeAll(cands, 4)
	if err != nil {
		t.Fatal(err)
	}
	coldTests := a.Stats.TotalTests()
	a.ResetStats()
	warm, err := a.AnalyzeAll(cands, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.TotalTests() != 0 {
		t.Fatalf("warm re-run ran %d cascade solves, want 0 (cold run did %d)",
			a.Stats.TotalTests(), coldTests)
	}
	for i := range warm {
		if warm[i].Outcome != cold[i].Outcome {
			t.Fatalf("pair %d: warm outcome %v differs from cold %v", i, warm[i].Outcome, cold[i].Outcome)
		}
	}
	checkHitInvariant(t, &a.Stats, 4, 0)
}
