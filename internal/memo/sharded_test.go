package memo

import (
	"fmt"
	"sync"
	"testing"
)

// TestShardedTableBasic checks single-goroutine map semantics.
func TestShardedTableBasic(t *testing.T) {
	s := NewShardedTable[int](0)
	if _, ok := s.Lookup(Key{1, 2}); ok {
		t.Fatal("lookup on empty table hit")
	}
	s.Insert(Key{1, 2}, 12)
	s.Insert(Key{3, 4, 5}, 345)
	s.Insert(Key{1, 2}, 21) // overwrite
	if v, ok := s.Lookup(Key{1, 2}); !ok || v != 21 {
		t.Fatalf("Lookup({1,2}) = %d, %v; want 21, true", v, ok)
	}
	if v, ok := s.Lookup(Key{3, 4, 5}); !ok || v != 345 {
		t.Fatalf("Lookup({3,4,5}) = %d, %v; want 345, true", v, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	n := 0
	s.Range(func(Key, int) bool { n++; return true })
	if n != 2 {
		t.Fatalf("Range visited %d entries, want 2", n)
	}
}

// TestShardedHashCollision: lookups compare a stored hash before the key,
// so two distinct keys with the same paper hash must still be stored as two
// entries and each be found.
func TestShardedHashCollision(t *testing.T) {
	a, b := Key{2, 0}, Key{0, 1}
	if a.hash() != b.hash() {
		t.Fatalf("test keys must collide: hash %d vs %d", a.hash(), b.hash())
	}
	s := NewShardedTable[int](1)
	s.Insert(a, 1)
	s.Insert(b, 2)
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if v, ok := s.Lookup(a); !ok || v != 1 {
		t.Fatalf("Lookup(%v) = %d, %v; want 1, true", a, v, ok)
	}
	if v, ok := s.Lookup(b); !ok || v != 2 {
		t.Fatalf("Lookup(%v) = %d, %v; want 2, true", b, v, ok)
	}
}

// TestShardedOverwriteKeepsInternedKey: overwriting an entry keeps the key
// instance the table already holds, so LookupStored identity — which the
// driver's provenance replay relies on — never changes.
func TestShardedOverwriteKeepsInternedKey(t *testing.T) {
	s := NewShardedTable[int](0)
	first := Key{4, 5, 6}
	s.Insert(first, 1)
	s.Insert(first.Clone(), 2)
	stored, v, ok := s.LookupStored(first.Clone())
	if !ok || v != 2 {
		t.Fatalf("LookupStored = %d, %v; want 2, true", v, ok)
	}
	if &stored[0] != &first[0] {
		t.Fatal("an overwrite must keep the interned key instance")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestShardedTableShardCounts verifies power-of-two rounding.
func TestShardedTableShardCounts(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-1, DefaultShards}, {0, DefaultShards}, {1, 1}, {2, 2}, {3, 4},
		{5, 8}, {16, 16}, {100, 128},
	} {
		if got := len(NewShardedTable[int](tc.in).sh); got != tc.want {
			t.Errorf("NewShardedTable(%d): %d shards, want %d", tc.in, got, tc.want)
		}
	}
}

// TestShardedTableHammer pounds one table from many goroutines with
// overlapping key sets — every goroutine inserts and re-reads the full key
// population, so the same keys race through every shard. Run under -race
// this is the package's concurrency gate; the final state must hold every
// key with its (key-deterministic) value, matching the analyzer's benign
// double-insert contract.
func TestShardedTableHammer(t *testing.T) {
	const (
		goroutines = 16
		keys       = 500
		rounds     = 4
	)
	// Keys shaped like real memo keys: short int64 vectors.
	mk := func(i int) Key {
		return Key{int64(i), int64(i * 7), int64(-i), int64(len("k"))}
	}
	s := NewShardedTable[int](8)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger starting offsets so goroutines collide on
				// different keys at different times.
				for n := 0; n < keys; n++ {
					i := (n + g*keys/goroutines) % keys
					k := mk(i)
					v, ok := s.Lookup(k)
					if ok {
						if v != i*3 {
							t.Errorf("Lookup(%v) = %d, want %d", k, v, i*3)
							return
						}
					}
					s.Insert(k, i*3) // same value from every goroutine
					v, ok = s.Lookup(k)
					if !ok || v != i*3 {
						t.Errorf("Lookup(%v) after insert = %d, %v", k, v, ok)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != keys {
		t.Fatalf("Len = %d, want %d", s.Len(), keys)
	}
	for i := 0; i < keys; i++ {
		if v, ok := s.Lookup(mk(i)); !ok || v != i*3 {
			t.Fatalf("final Lookup(%d) = %d, %v; want %d, true", i, v, ok, i*3)
		}
	}
}

// TestShardedTableLockFreeStress hammers the lock-free read path while
// writers publish entries in place and grow their shards: readers spin on
// Lookup and must only ever observe a miss or the key-determined value —
// never a torn entry, a lost earlier insert, or an unterminated probe. Run
// under -race (make race) this is the in-place publication gate.
func TestShardedTableLockFreeStress(t *testing.T) {
	const (
		readers = 8
		writers = 4
		keys    = 1000
	)
	mk := func(i int) Key { return Key{int64(i), int64(i * 31), int64(-i)} }
	val := func(i int) int { return i*7 + 1 }
	s := NewShardedTable[int](4) // few shards → many grows per shard

	stop := make(chan struct{})
	var readersDone sync.WaitGroup
	for r := 0; r < readers; r++ {
		readersDone.Add(1)
		go func(r int) {
			defer readersDone.Done()
			for i := r; ; i = (i + 1) % keys {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := s.Lookup(mk(i)); ok && v != val(i) {
					t.Errorf("Lookup(%d) = %d, want %d", i, v, val(i))
					return
				}
			}
		}(r)
	}

	var writersDone sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersDone.Add(1)
		go func(w int) {
			defer writersDone.Done()
			// Interleaved, overlapping ranges: every key is inserted by at
			// least one writer, many by several.
			for i := w; i < keys; i += 2 {
				k := mk(i)
				s.Insert(k, val(i))
				if v, ok := s.Lookup(k); !ok || v != val(i) {
					t.Errorf("writer %d lost own insert of %d: %d, %v", w, i, v, ok)
					return
				}
			}
		}(w)
	}
	writersDone.Wait()
	close(stop)
	readersDone.Wait()

	if s.Len() != keys {
		t.Fatalf("Len = %d, want %d", s.Len(), keys)
	}
	for i := 0; i < keys; i++ {
		if v, ok := s.Lookup(mk(i)); !ok || v != val(i) {
			t.Fatalf("final Lookup(%d) = %d, %v; want %d, true", i, v, ok, val(i))
		}
	}
}

// TestShardedLookupStoredInterns verifies LookupStored hands back the
// table's own key, not the probe key — the contract provenance relies on
// to keep a stable key without cloning.
func TestShardedLookupStoredInterns(t *testing.T) {
	s := NewShardedTable[int](0)
	owned := Key{9, 8, 7}
	s.Insert(owned, 1)
	probe := owned.Clone()
	stored, v, ok := s.LookupStored(probe)
	if !ok || v != 1 {
		t.Fatalf("LookupStored = %d, %v", v, ok)
	}
	if &stored[0] != &owned[0] {
		t.Fatal("LookupStored must return the interned key, not the probe")
	}
}

// ExampleShardedTable shows the concurrent memo table at work: the same
// canonical problem looked up from many goroutines is cached once and then
// served from the shard it hashed to.
func ExampleShardedTable() {
	table := NewShardedTable[string](4)
	key := Key{2, 1, 1, -1, 0} // a canonicalized dependence problem

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := table.Lookup(key); !ok {
				// Miss: solve the problem (here: a constant) and cache it.
				// Racing workers may all miss and insert — the value is
				// determined by the key, so the overwrite is benign.
				table.Insert(key, "dependent, distance 1")
			}
		}()
	}
	wg.Wait()

	verdict, _ := table.Lookup(key)
	fmt.Printf("verdict: %s\n", verdict)
	fmt.Printf("unique problems: %d\n", table.Len())
	// Output:
	// verdict: dependent, distance 1
	// unique problems: 1
}
