package core

import (
	"exactdep/internal/dtest"
	"exactdep/internal/memo"
)

// MemoStats is an introspection snapshot of the analyzer's memo tables,
// rendered by depanalyze -memostats next to the lookup traffic in
// stats.Counters: table occupancy and shard spread, read from the live
// tables.
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
	// DegradedEntries counts full-table entries holding a budget-degraded
	// (Maybe) verdict — cache capacity spent on answers valid only under the
	// current budget class (SaveMemo drops them).
	DegradedEntries int
}

// MemoStats reports the current state of the analyzer's memo tables.
func (a *Analyzer) MemoStats() MemoStats {
	m := MemoStats{
		FullEntries: a.full.Len(),
		FullBuckets: a.full.Buckets(),
		EqEntries:   a.eq.Len(),
		EqBuckets:   a.eq.Buckets(),
		Shards:      a.full.NumShards(),
		ShardLens:   a.full.ShardLens(),
	}
	m.ShardMin, m.ShardMax = minMax(m.ShardLens)
	a.full.Range(func(_ memo.Key, v cached) bool {
		if dtest.Outcome(v.res.Outcome) == dtest.Maybe {
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
