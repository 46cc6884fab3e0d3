package memo

import (
	"runtime"
	"testing"

	"exactdep/internal/system"
)

// TestEncoderZeroAllocs gates the scratch-backed encoder: after warmup,
// encoding full and eq keys allocates nothing, for every problem shape and
// both schemes. Part of the Makefile allocgate.
func TestEncoderZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	probs := encoderProblems(t)
	var e Encoder
	for _, p := range probs { // warm the scratch buffers
		e.EncodeFull(p, true)
		e.EncodeEq(p, true)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range probs {
			for _, improved := range []bool{false, true} {
				e.EncodeFull(p, improved)
				e.EncodeEq(p, improved)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("encode allocates %.1f times per sweep, want 0", allocs)
	}
}

// TestMemoHitZeroAllocs gates the whole steady-state memo path — encode,
// lock-free LookupStored, hit — at zero allocations per candidate. Part of
// the Makefile allocgate.
func TestMemoHitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	probs := encoderProblems(t)
	var e Encoder
	tbl := NewShardedTable[int](0)
	// Two problems may share an improved key (the paper's unused-loop
	// collapse), so expected values are assigned per canonical key.
	want := make([]int, len(probs))
	canon := map[string]int{}
	for i, p := range probs {
		k := e.EncodeFull(p, true)
		if j, ok := canon[k.Bytes()]; ok {
			want[i] = j
			continue
		}
		canon[k.Bytes()] = i
		want[i] = i
		tbl.Insert(k.Clone(), i)
	}
	hit := func(p *system.Problem, want int) {
		k := e.EncodeFull(p, true)
		_, v, ok := tbl.LookupStored(k)
		if !ok || v != want {
			t.Fatalf("LookupStored = %d, %v, want hit with %d", v, ok, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i, p := range probs {
			hit(p, want[i])
		}
	})
	if allocs != 0 {
		t.Fatalf("memo hit allocates %.1f times per sweep, want 0", allocs)
	}
}

// TestShardedInsertAllocs gates the in-place insert path: inserting 4,096
// keys one at a time into a one-shard table allocates a bounded number of
// bytes per insert (the entry plus the amortized doublings of the bucket
// array), however large the shard has grown. A design that copies its shard
// per insert allocates about 95 KB per insert here. Part of the Makefile
// allocgate.
func TestShardedInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	const (
		n         = 4096
		perInsert = 1 << 10 // bytes
	)
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{int64(i), int64(i * 7), int64(-i)}
	}
	tbl := NewShardedTable[int](1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, k := range keys {
		tbl.Insert(k, i)
	}
	runtime.ReadMemStats(&after)
	if tbl.Len() != n {
		t.Fatalf("Len = %d, want %d", tbl.Len(), n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > n*perInsert {
		t.Fatalf("%d inserts allocated %d bytes (%d per insert), want ≤ %d per insert",
			n, got, got/n, perInsert)
	}
}

// BenchmarkMemoEncode measures the scratch-backed canonicalization alone
// (run with -benchmem: allocs/op must be 0 in steady state).
func BenchmarkMemoEncode(b *testing.B) {
	probs := encoderProblems(b)
	var e Encoder
	for _, p := range probs {
		e.EncodeFull(p, true)
		e.EncodeEq(p, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := probs[i%len(probs)]
		e.EncodeFull(p, true)
		e.EncodeEq(p, true)
	}
}

// BenchmarkShardedLookupParallel hammers the lock-free read path from
// GOMAXPROCS goroutines: with mutex-free lookups the per-op time holds (or
// improves) as -cpu rises instead of plateauing on a shared lock.
func BenchmarkShardedLookupParallel(b *testing.B) {
	tbl := NewShardedTable[int](0)
	keys := make([]Key, 512)
	for i := range keys {
		keys[i] = Key{int64(i), int64(i * 7), int64(i % 13)}
		tbl.Insert(keys[i], i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := keys[i%len(keys)]
			if v, ok := tbl.Lookup(k); !ok || v != i%len(keys) {
				b.Fatalf("lookup %d = %d, %v", i%len(keys), v, ok)
			}
			i++
		}
	})
}
