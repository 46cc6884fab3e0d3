package core_test

// Tests for the per-worker L1 memo layer in front of the shared table: the
// ISSUE 3 determinism re-check (byte-identical output with the L1 enabled,
// disabled, and shrunk to force evictions), the layer-counter invariants,
// and the MemoStats introspection snapshot.

import (
	"fmt"
	"testing"

	"exactdep/internal/core"
	"exactdep/internal/memo"
)

// TestAnalyzeAllDeterministicL1 re-checks AnalyzeAll determinism across L1
// configurations: results must be byte-identical whether lookups are
// answered by the private L1 or the shared table, for serial and concurrent
// runs alike.
func TestAnalyzeAllDeterministicL1(t *testing.T) {
	base := core.Options{
		Memoize: true, ImprovedMemo: true,
		DirectionVectors: true, PruneUnused: true, PruneDistance: true,
	}
	cands := suiteCandidates(t, true)

	noL1 := base
	noL1.L1Size = -1
	serial := core.New(noL1)
	want, err := serial.AnalyzeAll(cands, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := fmt.Sprintf("%+v", want)

	for _, tc := range []struct {
		name    string
		l1Size  int
		workers int
	}{
		{"serial default L1", 0, 1},
		{"serial tiny L1", 2, 1},
		{"concurrent default L1", 0, 4},
		{"concurrent tiny L1", 2, 4},
		{"concurrent no L1", -1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := base
			opts.L1Size = tc.l1Size
			a := core.New(opts)
			got, err := a.AnalyzeAll(cands, tc.workers)
			if err != nil {
				t.Fatal(err)
			}
			if gotBytes := fmt.Sprintf("%+v", got); gotBytes != wantBytes {
				t.Fatal("results differ from the no-L1 serial reference")
			}
		})
	}
}

// TestL1CounterInvariants pins the layer-counter semantics: FullLookups and
// FullHits stay the candidate-level totals; the layer counters partition
// them.
func TestL1CounterInvariants(t *testing.T) {
	cands := suiteCandidates(t, false)
	opts := core.Options{Memoize: true, ImprovedMemo: true}

	a := core.New(opts) // L1 on by default
	if _, err := a.AnalyzeAll(cands, 1); err != nil {
		t.Fatal(err)
	}
	s := &a.Stats
	if s.L1Lookups != s.FullLookups {
		t.Errorf("L1Lookups = %d, want FullLookups = %d (L1 consulted first on every lookup)", s.L1Lookups, s.FullLookups)
	}
	if s.L1Hits+s.L2Hits != s.FullHits {
		t.Errorf("L1Hits(%d) + L2Hits(%d) != FullHits(%d)", s.L1Hits, s.L2Hits, s.FullHits)
	}
	if s.L1Lookups-s.L1Hits != s.L2Lookups {
		t.Errorf("L2Lookups = %d, want the %d L1 misses", s.L2Lookups, s.L1Lookups-s.L1Hits)
	}
	if s.L1Hits == 0 {
		t.Error("suite has heavy pattern repetition; L1 never hit")
	}

	off := opts
	off.L1Size = -1
	b := core.New(off)
	if _, err := b.AnalyzeAll(cands, 1); err != nil {
		t.Fatal(err)
	}
	if b.Stats.L1Lookups != 0 || b.Stats.L1Hits != 0 {
		t.Errorf("L1Size = -1 must disable the L1 layer: %d lookups, %d hits", b.Stats.L1Lookups, b.Stats.L1Hits)
	}
	if b.Stats.L2Lookups != b.Stats.FullLookups || b.Stats.L2Hits != b.Stats.FullHits {
		t.Errorf("with the L1 off every lookup is an L2 lookup: L2 %d/%d, Full %d/%d",
			b.Stats.L2Hits, b.Stats.L2Lookups, b.Stats.FullHits, b.Stats.FullLookups)
	}
	// The candidate-level totals must not depend on the L1 configuration.
	if b.Stats.FullLookups != s.FullLookups || b.Stats.FullHits != s.FullHits {
		t.Errorf("FullLookups/FullHits changed with the L1 off: %d/%d vs %d/%d",
			b.Stats.FullLookups, b.Stats.FullHits, s.FullLookups, s.FullHits)
	}
}

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
	if m.L1Capacity != memo.DefaultL1Size {
		t.Errorf("L1Capacity = %d, want default %d", m.L1Capacity, memo.DefaultL1Size)
	}
	if m.L1Entries == 0 || m.L1Entries > m.L1Capacity {
		t.Errorf("L1Entries = %d (capacity %d)", m.L1Entries, m.L1Capacity)
	}
	if m.L1Lookups != a.Stats.L1Lookups || m.L2Hits != a.Stats.L2Hits {
		t.Errorf("lookup traffic not mirrored from counters: %+v", m)
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
