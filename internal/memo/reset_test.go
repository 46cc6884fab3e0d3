package memo

import "testing"

// resetKeys returns a few distinct stable keys.
func resetKeys(n int) []Key {
	out := make([]Key, n)
	for i := range out {
		out[i] = Key{int64(i + 1), int64(2 * (i + 1)), 7}
	}
	return out
}

func TestShardedTableReset(t *testing.T) {
	st := NewShardedTable[int](4)
	keys := resetKeys(300)
	for i, k := range keys {
		st.Insert(k, i)
	}
	if st.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(keys))
	}
	grown := st.Buckets()

	st.Reset()
	if st.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", st.Len())
	}
	if st.Buckets() >= grown {
		t.Fatalf("Buckets after Reset = %d, want shrunk below %d", st.Buckets(), grown)
	}
	if _, ok := st.Lookup(keys[7]); ok {
		t.Fatal("stale entry survived Reset")
	}

	st.Insert(keys[9], 42)
	if v, ok := st.Lookup(keys[9]); !ok || v != 42 {
		t.Fatalf("post-Reset insert/lookup = (%d, %v), want (42, true)", v, ok)
	}
}
