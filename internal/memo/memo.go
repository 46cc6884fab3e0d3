// Package memo implements the memoization scheme of Maydan, Hennessy & Lam
// §5: dependence problems are canonicalized into integer vectors and cached
// in an open hash table keyed by the paper's hash function
//
//	h(x) = size(x) + Σ 2^i·x_i,
//
// so repeated subscript/bound patterns — the overwhelming majority in real
// programs — are tested once.
//
// The analyzer keeps two tables over this package's keys, as the paper
// does:
//
//   - the eq table, keyed on the subscript equations alone, caches GCD-test
//     verdicts (the GCD test ignores bounds, so one entry serves every
//     bounds variation of the same equations);
//   - the full table, keyed on the complete problem (equations plus
//     bounds), caches candidate-level verdicts with their distance and
//     direction summaries, so §6's direction vectors are computed once per
//     canonical problem.
//
// A full key is the problem's integer rows as the system package builds
// them: per kept variable its kind, loop-level rank and equation
// coefficients, then the right-hand sides, then each kept variable's two
// bounds, a bound as presence, constant and its nonzero coefficients as
// (kept position, coefficient) pairs. An eq key is the equation rows and
// right-hand sides alone. The "improved" encoding first drops loop
// variables that cannot affect the verdict (unused indices), merging cases
// such as the paper's pair of doubly nested loops that both collapse to a
// single loop.
//
// Because memoization eliminates most test invocations, the memo lookup
// itself is the analyzer's steady-state hot path. The package therefore
// provides a zero-allocation fast path end to end:
//
//   - Encoder canonicalizes problems into scratch-backed keys (no maps, no
//     sorting, no fresh Key per candidate) — one Encoder per worker.
//   - ShardedTable is the paper's open hash table, shared by every worker of
//     the concurrent driver (and used alone by a serial analyzer) with
//     lock-free, stat-free reads: each shard's open-addressed bucket array
//     holds atomic pointers to immutable entries that carry their mixed
//     hash, so a lookup hashes its key once and probes with atomic loads; an
//     insert publishes one entry in place under a short per-shard mutex
//     (O(1) amortized, growth reuses the stored hashes). Traffic is counted
//     by the caller (core's stats.Counters), not by the table (see
//     sharded.go).
//   - InFlight deduplicates concurrent solves of the same canonical key, so
//     two workers never run the test cascade for one problem at the same
//     time (see inflight.go).
package memo

// Key is a canonical integer encoding of a dependence problem. Keys
// produced by an Encoder alias its scratch buffers and are valid only until
// the encoder's next call; Clone them before storing (ShardedTable retains
// the Key it is given).
type Key []int64

// Clone returns a copy of k with its own backing array, safe to retain
// after the encoder that produced k reuses its buffers.
func (k Key) Clone() Key {
	if k == nil {
		return nil
	}
	return append(Key(nil), k...)
}

// hash implements the paper's function: size(x) + Σ 2^i·x_i. The shift
// *amount* wraps at 63 (i mod 63, cycling through 0..62), not at 64: a
// shift of 63 or more would park short-key contributions in the sign bit or
// (at ≥64) discard them entirely, so element i of a long key instead shares
// a shift with element i±63 and the top bit is reached only through carry
// propagation. Residual collisions are resolved by key comparison in the
// tables; TestHashShiftWrap pins the wrap and TestHashDistributionOnSuiteKeys
// watches the collision rate over the workload's real keys.
func (k Key) hash() uint64 {
	h := uint64(len(k))
	var sh uint // i mod 63, kept as a running count instead of a division
	for _, v := range k {
		h += uint64(v) << sh
		if sh++; sh == 63 {
			sh = 0
		}
	}
	return h
}

// Hash exposes the paper's hash for introspection (occupancy reports,
// distribution tests). The tables index buckets and shards through mix
// rather than using it raw.
func (k Key) Hash() uint64 { return k.hash() }

// mix finalizes the paper's hash for indexing (a splitmix64-style avalanche
// step). The additive hash keeps distinct problems apart — its collision
// rate over the suite's real keys is fine — but it concentrates structure
// in the low bits (every key starts with a small variable count and column
// width), and TestHashDistributionOnSuiteKeys showed raw low-bit indexing
// packing a quarter of the suite into one bucket chain. Diffusing the bits
// first keeps probe chains short and lets the sharded table take shard
// bits and bucket bits from the same value without correlation.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

func (k Key) equal(o Key) bool {
	if len(k) != len(o) {
		return false
	}
	for i, v := range k {
		if o[i] != v {
			return false
		}
	}
	return true
}
