package memo

import "testing"

func TestL1Basics(t *testing.T) {
	l := NewL1[int](4)
	if l.Cap() != 4 || l.Len() != 0 {
		t.Fatalf("fresh L1: cap=%d len=%d", l.Cap(), l.Len())
	}
	k := Key{1, 2, 3}
	if _, ok := l.Lookup(k); ok {
		t.Fatal("empty L1 lookup must miss")
	}
	l.Store(k, 42)
	if v, ok := l.Lookup(k); !ok || v != 42 {
		t.Fatalf("lookup = %d, %v", v, ok)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestL1SizeRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-1, DefaultL1Size}, {0, DefaultL1Size}, {1, 1}, {3, 4}, {4, 4}, {100, 128},
	} {
		if got := NewL1[int](tc.in).Cap(); got != tc.want {
			t.Errorf("NewL1(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestL1DirectMappedEviction: two keys mapping to the same slot evict each
// other; distinct slots coexist. A one-slot cache forces the shared slot.
func TestL1DirectMappedEviction(t *testing.T) {
	l := NewL1[int](1)
	k1, k2 := Key{1}, Key{2}
	l.Store(k1, 1)
	l.Store(k2, 2)
	if _, ok := l.Lookup(k1); ok {
		t.Fatal("k1 must be evicted from the single slot")
	}
	if v, ok := l.Lookup(k2); !ok || v != 2 {
		t.Fatalf("k2 = %d, %v", v, ok)
	}
	if l.Len() != 1 {
		t.Fatalf("Len after eviction = %d", l.Len())
	}
}

// TestL1AgainstTable drives an L1 in front of a one-shard ShardedTable with
// interned keys — the analyzer's fill discipline — and checks the L1 never
// disagrees with its backing table.
func TestL1AgainstTable(t *testing.T) {
	tbl := NewShardedTable[int](1)
	l := NewL1[int](8)
	var e Encoder
	probs := encoderProblems(t)
	// Problems sharing an improved key (unused-loop collapse) share one
	// entry; expectations are per canonical key.
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
	hits := 0
	for round := 0; round < 3; round++ {
		for i, p := range probs {
			k := e.EncodeFull(p, true)
			if v, ok := l.Lookup(k); ok {
				if v != want[i] {
					t.Fatalf("round %d: L1 returned %d for problem %d, want %d", round, v, i, want[i])
				}
				hits++
				continue
			}
			stored, v, ok := tbl.LookupStored(k)
			if !ok || v != want[i] {
				t.Fatalf("round %d: table lookup for problem %d = %d, %v, want %d", round, i, v, ok, want[i])
			}
			l.Store(stored, v)
		}
	}
	if hits == 0 {
		t.Fatal("L1 never hit across repeated rounds")
	}
}
