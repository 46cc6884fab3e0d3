package core

import (
	"exactdep/internal/dtest"
	"exactdep/internal/memo"
)

// MemoStats is an introspection snapshot of the analyzer's memo hierarchy,
// rendered by depanalyze -memostats: table occupancy, shard spread, and how
// the lookup traffic split between the per-worker L1 layer and the shared
// table. Lookup/hit totals come from stats.Counters (merged across
// workers); entry and bucket counts are read from the live tables.
type MemoStats struct {
	// With-bounds (full) table occupancy.
	FullEntries, FullBuckets int
	// Without-bounds (GCD) table occupancy.
	EqEntries, EqBuckets int
	// Sharding of the full table. ShardLens is the per-shard entry count;
	// ShardMin/ShardMax summarize its spread.
	Shards             int
	ShardMin, ShardMax int
	ShardLens          []int
	// L1 layer of the analyzer that answered serial calls (worker L1s are
	// per-goroutine and folded only into the counters). Zero L1Capacity
	// means the L1 is disabled.
	L1Capacity, L1Entries int
	// Lookup traffic per layer, from the merged counters.
	L1Lookups, L1Hits int
	L2Lookups, L2Hits int
	// DegradedEntries counts full-table entries holding a budget-degraded
	// (Maybe) verdict — cache capacity spent on answers valid only under the
	// current budget class (SaveMemo drops them).
	DegradedEntries int
}

// MemoStats reports the current state of the analyzer's memo hierarchy.
func (a *Analyzer) MemoStats() MemoStats {
	m := MemoStats{
		FullEntries: a.full.Len(),
		FullBuckets: a.full.Buckets(),
		EqEntries:   a.eq.Len(),
		EqBuckets:   a.eq.Buckets(),
		Shards:      a.full.NumShards(),
		ShardLens:   a.full.ShardLens(),
		L1Lookups:   a.Stats.L1Lookups,
		L1Hits:      a.Stats.L1Hits,
		L2Lookups:   a.Stats.L2Lookups,
		L2Hits:      a.Stats.L2Hits,
	}
	m.ShardMin, m.ShardMax = minMax(m.ShardLens)
	if a.l1 != nil {
		m.L1Capacity = a.l1.Cap()
		m.L1Entries = a.l1.Len()
	}
	a.full.Range(func(_ memo.Key, v cached) bool {
		if v.res.Outcome == dtest.Maybe {
			m.DegradedEntries++
		}
		return true
	})
	return m
}

// minMax returns the extremes of a non-empty slice (a table has at least
// one shard).
func minMax(xs []int) (lo, hi int) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
