package core_test

// External test package: the determinism tests drive the concurrent driver
// over internal/workload's suite, which itself imports core.

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"exactdep/internal/core"
	"exactdep/internal/refs"
	"exactdep/internal/stats"
	"exactdep/internal/workload"
)

// suiteCandidates gathers every candidate pair of the 13-program suite.
func suiteCandidates(t testing.TB, symbolic bool) []refs.Candidate {
	t.Helper()
	var all []refs.Candidate
	for _, s := range workload.Programs() {
		cs, err := workload.Candidates(s, symbolic)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, cs...)
	}
	return all
}

// deterministicTallies extracts the counters that must not depend on worker
// count or scheduling: the verdict tallies and the unique-problem counts.
// (Hit counts and per-test counts legitimately vary: whether a duplicated
// pattern hits the cache or recomputes depends on which worker got there
// first.)
func deterministicTallies(c *stats.Counters) map[string]int {
	return map[string]int{
		"Pairs":          c.Pairs,
		"Constant":       c.Constant,
		"GCDIndependent": c.GCDIndependent,
		"Independent":    c.Independent,
		"Dependent":      c.Dependent,
		"Unknown":        c.Unknown,
		"FullLookups":    c.FullLookups,
		"UniqueFull":     c.UniqueFull,
		"UniqueEq":       c.UniqueEq,
	}
}

// TestAnalyzeAllDeterministic asserts the issue's core contract: AnalyzeAll
// with 1 worker and with N workers produce identical results (byte for
// byte) and identical merged verdict tallies over the whole workload suite,
// in the production configuration.
func TestAnalyzeAllDeterministic(t *testing.T) {
	opts := core.Options{
		Memoize: true, ImprovedMemo: true,
		DirectionVectors: true, PruneUnused: true, PruneDistance: true,
	}
	cands := suiteCandidates(t, true)

	serial := core.New(opts)
	want, err := serial.AnalyzeAll(cands, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := fmt.Sprintf("%+v", want)
	wantTallies := deterministicTallies(&serial.Stats)

	workerCounts := []int{2, 4, 8}
	if n := runtime.GOMAXPROCS(0); n != 2 && n != 4 && n != 8 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			par := core.New(opts)
			got, err := par.AnalyzeAll(cands, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d results, want %d", len(got), len(want))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("result %d differs:\n got %+v\nwant %+v", i, got[i], want[i])
				}
			}
			if gotBytes := fmt.Sprintf("%+v", got); gotBytes != wantBytes {
				t.Fatal("formatted results are not byte-identical to the serial run")
			}
			if gotTallies := deterministicTallies(&par.Stats); !reflect.DeepEqual(gotTallies, wantTallies) {
				t.Fatalf("merged tallies differ:\n got %v\nwant %v", gotTallies, wantTallies)
			}
		})
	}
}

// TestAnalyzeAllMatchesAnalyzeCandidate pins the concurrent driver to the
// original serial entry point (not just to itself with one worker).
func TestAnalyzeAllMatchesAnalyzeCandidate(t *testing.T) {
	opts := core.Options{Memoize: true, ImprovedMemo: true}
	cands := suiteCandidates(t, false)

	serial := core.New(opts)
	var want []core.Result
	for _, c := range cands {
		r, err := serial.AnalyzeCandidate(c)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}

	par := core.New(opts)
	got, err := par.AnalyzeAll(cands, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("AnalyzeAll(4 workers) differs from per-candidate serial analysis")
	}
	if par.Stats.Pairs != serial.Stats.Pairs ||
		par.Stats.Independent != serial.Stats.Independent ||
		par.Stats.Dependent != serial.Stats.Dependent ||
		par.Stats.Unknown != serial.Stats.Unknown {
		t.Fatalf("verdict tallies differ: parallel %+v, serial %+v", par.Stats, serial.Stats)
	}
}

// TestAnalyzeAllWarmTables checks that a concurrent pass reuses the entries
// a serial pass memoized: a second pass over the same candidates on the
// same analyzer must be answered from cache.
func TestAnalyzeAllWarmTables(t *testing.T) {
	opts := core.Options{Memoize: true, ImprovedMemo: true}
	s, ok := workload.ProgramByName("SR") // 1,290 cases, 14 unique
	if !ok {
		t.Fatal("SR missing")
	}
	cands, err := workload.Candidates(s, false)
	if err != nil {
		t.Fatal(err)
	}

	a := core.New(opts)
	// Serial warmup populates the tables.
	if _, err := a.AnalyzeAll(cands, 1); err != nil {
		t.Fatal(err)
	}
	unique, hitsBefore := a.Stats.UniqueFull, a.Stats.FullHits
	if unique == 0 {
		t.Fatal("warmup cached nothing")
	}
	// The concurrent pass shares the same tables and must reuse every entry:
	// no new unique problems, every non-constant pair a hit.
	if _, err := a.AnalyzeAll(cands, 4); err != nil {
		t.Fatal(err)
	}
	if a.Stats.UniqueFull != unique {
		t.Fatalf("unique problems grew %d → %d across identical passes", unique, a.Stats.UniqueFull)
	}
	wantHits := hitsBefore + a.Stats.Pairs/2 - a.Stats.Constant/2
	if a.Stats.FullHits != wantHits {
		t.Fatalf("FullHits = %d, want %d (every non-constant pair served from the warm table)",
			a.Stats.FullHits, wantHits)
	}
}

// TestAnalyzeAllEdgeCases covers empty input and the workers <= 0 default.
func TestAnalyzeAllEdgeCases(t *testing.T) {
	a := core.New(core.Options{Memoize: true})
	if res, err := a.AnalyzeAll(nil, 8); err != nil || len(res) != 0 {
		t.Fatalf("empty input: %v, %v", res, err)
	}
	s, _ := workload.ProgramByName("TI")
	cands, err := workload.Candidates(s, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.AnalyzeAll(cands, 0) // 0 → GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(cands) {
		t.Fatalf("%d results for %d candidates", len(res), len(cands))
	}
}
