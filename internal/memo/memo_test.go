package memo

import (
	"fmt"
	"testing"
	"testing/quick"

	"exactdep/internal/ir"
	"exactdep/internal/system"
)

// buildPair constructs the problem for a loop nest with the given loops and
// one-dimensional references a[subA] = a[subB].
func buildPair(t testing.TB, loops []ir.Loop, subA, subB ir.Expr) *system.Problem {
	t.Helper()
	nest := &ir.Nest{Label: "m", Loops: loops}
	a := ir.Ref{Array: "a", Subscripts: []ir.Expr{subA}, Kind: ir.Write, Depth: len(loops)}
	b := ir.Ref{Array: "a", Subscripts: []ir.Expr{subB}, Kind: ir.Read, Depth: len(loops)}
	nest.Refs = []ir.Ref{a, b}
	p, err := system.Build(nest.Pair(a, b))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func loop(idx string, lo, hi int64) ir.Loop {
	return ir.Loop{Index: idx, Lower: ir.NewConst(lo), Upper: ir.NewConst(hi)}
}

func TestEncodeDeterministic(t *testing.T) {
	p1 := buildPair(t, []ir.Loop{loop("i", 1, 10)}, ir.NewVar("i").AddConst(10), ir.NewVar("i"))
	p2 := buildPair(t, []ir.Loop{loop("i", 1, 10)}, ir.NewVar("i").AddConst(10), ir.NewVar("i"))
	for _, improved := range []bool{false, true} {
		if !EncodeFull(p1, improved).equal(EncodeFull(p2, improved)) {
			t.Errorf("identical problems must share a full key (improved=%v)", improved)
		}
		if !EncodeEq(p1, improved).equal(EncodeEq(p2, improved)) {
			t.Errorf("identical problems must share an eq key (improved=%v)", improved)
		}
	}
}

func TestEncodeDistinguishes(t *testing.T) {
	base := buildPair(t, []ir.Loop{loop("i", 1, 10)}, ir.NewVar("i").AddConst(10), ir.NewVar("i"))
	differentOffset := buildPair(t, []ir.Loop{loop("i", 1, 10)}, ir.NewVar("i").AddConst(9), ir.NewVar("i"))
	differentBounds := buildPair(t, []ir.Loop{loop("i", 1, 20)}, ir.NewVar("i").AddConst(10), ir.NewVar("i"))
	if EncodeFull(base, false).equal(EncodeFull(differentOffset, false)) {
		t.Error("different offsets must not collide")
	}
	if EncodeFull(base, false).equal(EncodeFull(differentBounds, false)) {
		t.Error("different bounds must not collide in the full key")
	}
	// ...but must collide in the equation-only key
	if !EncodeEq(base, false).equal(EncodeEq(differentBounds, false)) {
		t.Error("eq key must ignore bounds")
	}
}

func TestImprovedCollapsesUnusedLoops(t *testing.T) {
	// The paper's example: programs (a) and (b) — a[i+10]=a[i] vs
	// a[j+10]=a[j], both inside i and j loops — collapse to the same
	// single-loop case under the improved scheme.
	pa := buildPair(t, []ir.Loop{loop("i", 1, 10), loop("j", 1, 10)},
		ir.NewVar("i").AddConst(10), ir.NewVar("i"))
	pb := buildPair(t, []ir.Loop{loop("i", 1, 10), loop("j", 1, 10)},
		ir.NewVar("j").AddConst(10), ir.NewVar("j"))
	pc := buildPair(t, []ir.Loop{loop("i", 1, 10)},
		ir.NewVar("i").AddConst(10), ir.NewVar("i"))

	if EncodeFull(pa, false).equal(EncodeFull(pb, false)) {
		t.Error("simple scheme must distinguish i-based from j-based subscripts")
	}
	ka, kb, kc := EncodeFull(pa, true), EncodeFull(pb, true), EncodeFull(pc, true)
	if !ka.equal(kb) {
		t.Errorf("improved scheme must merge (a) and (b):\n%v\n%v", ka, kb)
	}
	if !ka.equal(kc) {
		t.Errorf("improved scheme must collapse to the single-loop case:\n%v\n%v", ka, kc)
	}
}

func TestImprovedKeepsTransitivelyUsedVars(t *testing.T) {
	// for i = 1 to 10, for j = i to 10 { a[j] = a[j-1] }: i is absent from
	// the subscripts but bounds j, so the improved scheme must keep it.
	loops := []ir.Loop{
		loop("i", 1, 10),
		{Index: "j", Lower: ir.NewVar("i"), Upper: ir.NewConst(10)},
	}
	p := buildPair(t, loops, ir.NewVar("j"), ir.NewVar("j").AddConst(-1))
	flat := buildPair(t, []ir.Loop{loop("j", 1, 10)}, ir.NewVar("j"), ir.NewVar("j").AddConst(-1))
	if EncodeFull(p, true).equal(EncodeFull(flat, true)) {
		t.Error("triangular bound variable must not be eliminated")
	}
}

func TestNameBlindEncoding(t *testing.T) {
	// Same structure under different index names must share keys.
	p1 := buildPair(t, []ir.Loop{loop("i", 1, 10)}, ir.NewVar("i").AddConst(3), ir.NewVar("i"))
	p2 := buildPair(t, []ir.Loop{loop("k", 1, 10)}, ir.NewVar("k").AddConst(3), ir.NewVar("k"))
	if !EncodeFull(p1, false).equal(EncodeFull(p2, false)) {
		t.Error("encoding must be name-blind")
	}
}

func TestTableBasics(t *testing.T) {
	tbl := NewShardedTable[string](1)
	k1 := Key{1, 2, 3}
	if _, ok := tbl.Lookup(k1); ok {
		t.Fatal("empty table lookup must miss")
	}
	tbl.Insert(k1, "hello")
	if v, ok := tbl.Lookup(k1); !ok || v != "hello" {
		t.Fatalf("lookup = %q, %v", v, ok)
	}
	tbl.Insert(k1, "world") // overwrite
	if v, _ := tbl.Lookup(k1); v != "world" {
		t.Fatal("overwrite failed")
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestTableGrowth(t *testing.T) {
	tbl := NewShardedTable[int](1)
	const n = 1000
	for i := 0; i < n; i++ {
		tbl.Insert(Key{int64(i), int64(i * 7)}, i)
	}
	if tbl.Len() != n {
		t.Fatalf("Len = %d, want %d", tbl.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := tbl.Lookup(Key{int64(i), int64(i * 7)}); !ok || v != i {
			t.Fatalf("lost entry %d after growth", i)
		}
	}
}

func TestTableCollisions(t *testing.T) {
	// The paper's hash is weak by design ("random collisions are not much
	// of a problem"); verify correctness under forced collisions.
	tbl := NewShardedTable[int](1)
	// keys of the same length whose weighted sums coincide
	k1 := Key{2, 0} // h = 2 + 2
	k2 := Key{0, 1} // h = 2 + 2
	if k1.hash() != k2.hash() {
		t.Fatalf("test premise broken: hashes differ (%d, %d)", k1.hash(), k2.hash())
	}
	tbl.Insert(k1, 1)
	tbl.Insert(k2, 2)
	if v, _ := tbl.Lookup(k1); v != 1 {
		t.Fatal("collision clobbered k1")
	}
	if v, _ := tbl.Lookup(k2); v != 2 {
		t.Fatal("collision clobbered k2")
	}
}

func TestTableRange(t *testing.T) {
	tbl := NewShardedTable[int](1)
	want := map[string]int{}
	for i := 0; i < 50; i++ {
		k := Key{int64(i), int64(i * i)}
		tbl.Insert(k, i)
		want[fmt.Sprint([]int64(k))] = i
	}
	got := map[string]int{}
	tbl.Range(func(k Key, v int) bool {
		got[fmt.Sprint([]int64(k))] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range lost %s", k)
		}
	}
	// early termination
	n := 0
	tbl.Range(func(Key, int) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("Range early stop visited %d", n)
	}
}

// Property: a table behaves like a map for random insert sequences.
func TestTableMatchesMap(t *testing.T) {
	prop := func(ops []struct {
		K []int8
		V int32
	}) bool {
		tbl := NewShardedTable[int32](1)
		ref := map[string]int32{}
		for _, op := range ops {
			k := make(Key, len(op.K))
			for i, b := range op.K {
				k[i] = int64(b)
			}
			tbl.Insert(k, op.V)
			ref[fmt.Sprint([]int64(k))] = op.V
		}
		// verify every reference entry via re-encoding
		for _, op := range ops {
			k := make(Key, len(op.K))
			for i, b := range op.K {
				k[i] = int64(b)
			}
			got, ok := tbl.Lookup(k)
			if !ok || got != ref[fmt.Sprint([]int64(k))] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
