// Distribution test over the workload's real keys. External test package:
// workload depends on core, which depends on memo, so this cannot live in
// package memo itself.
package memo_test

import (
	"fmt"
	"testing"

	"exactdep/internal/memo"
	"exactdep/internal/refs"
	"exactdep/internal/system"
	"exactdep/internal/workload"
)

// suiteKeys encodes every testable candidate of the synthetic PERFECT-style
// suite into its full-problem key (improved scheme), deduplicated — the
// actual key population the analyzer's tables hold.
func suiteKeys(t *testing.T) []memo.Key {
	var keys []memo.Key
	seen := map[string]bool{}
	var e memo.Encoder
	for _, spec := range workload.Programs() {
		cands, err := workload.Candidates(spec, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			if c.Class != refs.NeedsTest {
				continue
			}
			prob, err := system.Build(c.Pair)
			if err != nil {
				t.Fatal(err)
			}
			k := e.EncodeFull(prob, true)
			if s := fmt.Sprint(k); !seen[s] {
				seen[s] = true
				keys = append(keys, k.Clone())
			}
		}
	}
	return keys
}

// TestHashDistributionOnSuiteKeys watches the paper's additive hash over
// the suite's real key population: the hash is weak by design ("random
// collisions are not much of a problem" — they are resolved by key
// comparison), but it must still separate most distinct problems and
// spread them over buckets well enough that probe chains stay short.
func TestHashDistributionOnSuiteKeys(t *testing.T) {
	keys := suiteKeys(t)
	if len(keys) < 50 {
		t.Fatalf("suite produced only %d unique keys; distribution test needs a real population", len(keys))
	}

	// Full-hash collisions: distinct keys sharing an identical 64-bit hash.
	byHash := map[uint64]int{}
	for _, k := range keys {
		byHash[k.Hash()]++
	}
	collided := len(keys) - len(byHash)
	if collided*10 > len(keys) {
		t.Errorf("%d of %d unique keys share full hashes (> 10%%)", collided, len(keys))
	}

	// Bucket spread at a realistic table size (load factor ≤ 3/4, as the
	// tables maintain), indexed the way the tables index — low bits of the
	// mixed hash: the heaviest bucket must stay far from a linear scan.
	// (Raw low bits of the paper's hash fail this badly: every key starts
	// with a small variable count and column width, and before the mix
	// finalizer was added a quarter of the suite shared one bucket chain.)
	buckets := 1
	for buckets*3 < len(keys)*4 {
		buckets *= 2
	}
	load := make([]int, buckets)
	for _, k := range keys {
		load[memo.MixForTest(k.Hash())&uint64(buckets-1)]++
	}
	maxLoad := 0
	for _, n := range load {
		if n > maxLoad {
			maxLoad = n
		}
	}
	if limit := len(keys) / 8; maxLoad > limit {
		t.Errorf("heaviest bucket holds %d of %d keys (limit %d): hash is clustering", maxLoad, len(keys), limit)
	}

	// Shard spread: the mixed high bits that pick shards must not park
	// everything on a few shards.
	shardLoad := make([]int, memo.DefaultShards)
	for _, k := range keys {
		shardLoad[memo.MixForTest(k.Hash())>>(64-4)]++ // 16 shards
	}
	occupied := 0
	for _, n := range shardLoad {
		if n > 0 {
			occupied++
		}
	}
	if occupied < memo.DefaultShards/2 {
		t.Errorf("suite keys occupy only %d of %d shards", occupied, memo.DefaultShards)
	}
}
