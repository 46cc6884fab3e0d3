package core_test

import (
	"slices"
	"testing"

	"exactdep/internal/core"
	"exactdep/internal/refs"
)

// TestMemoStatsSnapshot sanity-checks the -memostats introspection shape
// after a serial and a concurrent run.
func TestMemoStatsSnapshot(t *testing.T) {
	cands := suiteCandidates(t, false)
	opts := core.Options{Memoize: true, ImprovedMemo: true}

	a := core.New(opts)
	if _, err := a.AnalyzeAll(cands, 1); err != nil {
		t.Fatal(err)
	}
	m := a.MemoStats()
	if m.FullEntries != a.Stats.UniqueFull || m.EqEntries != a.Stats.UniqueEq {
		t.Errorf("entry counts %d/%d, want %d/%d", m.FullEntries, m.EqEntries, a.Stats.UniqueFull, a.Stats.UniqueEq)
	}
	if m.FullBuckets < m.FullEntries || m.EqBuckets < m.EqEntries {
		t.Errorf("bucket counts below entry counts: %+v", m)
	}

	b := core.New(opts)
	if _, err := b.AnalyzeAll(cands, 4); err != nil {
		t.Fatal(err)
	}
	mb := b.MemoStats()
	if mb.Shards == 0 {
		t.Fatal("concurrent run must report sharded tables")
	}
	if len(mb.ShardLens) != mb.Shards {
		t.Fatalf("ShardLens has %d entries for %d shards", len(mb.ShardLens), mb.Shards)
	}
	sum := 0
	for _, n := range mb.ShardLens {
		sum += n
	}
	if sum != mb.FullEntries {
		t.Errorf("shard lens sum to %d, want %d entries", sum, mb.FullEntries)
	}
	if mb.ShardMin > mb.ShardMax || mb.ShardMax == 0 {
		t.Errorf("shard spread %d..%d", mb.ShardMin, mb.ShardMax)
	}
}

// TestAnalyzeAllMemoHotAllocs gates the analyzer's whole memo-hit path —
// Builder.Build, EncodeFull, the shared table's LookupStored and expand —
// for allocations: a warm analyzer without direction vectors re-running the
// suite at one worker allocates a fixed number of times per call (the
// result slice and per-call bookkeeping), however many candidates it
// serves from the tables. Part of the Makefile allocgate.
func TestAnalyzeAllMemoHotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	once := suiteCandidates(t, false)
	twice := append(slices.Clone(once), once...)
	a := core.New(core.Options{Memoize: true, ImprovedMemo: true})
	if _, err := a.AnalyzeAll(twice, 1); err != nil { // warm tables and scratch
		t.Fatal(err)
	}
	a.ResetStats()
	perCall := func(cands []refs.Candidate) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := a.AnalyzeAll(cands, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	n1, n2 := perCall(once), perCall(twice)
	if a.Stats.TotalTests() != 0 {
		t.Fatalf("warm re-runs ran %d cascade solves, want 0", a.Stats.TotalTests())
	}
	if n1 != n2 {
		t.Fatalf("a memo-hot call allocates %.0f times over %d candidates and %.0f over %d, want the same",
			n1, len(once), n2, len(twice))
	}
}
