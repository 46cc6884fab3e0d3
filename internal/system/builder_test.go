package system

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"exactdep/internal/ir"
	"exactdep/internal/linalg"
)

// builderPairs assembles a varied population of pairs: every shape the
// other system tests exercise (constant, strided, coupled, triangular,
// banded, scaled, symbolic) so the scratch-reusing Builder is compared
// against the allocating Build on the same inputs it will see in anger.
func builderPairs(t *testing.T) []ir.Pair {
	t.Helper()
	mk := func(loops []ir.Loop, subA, subB []ir.Expr, symbols ...string) ir.Pair {
		nest := &ir.Nest{Label: "t", Loops: loops, Symbols: symbols}
		a := ir.Ref{Array: "a", Subscripts: subA, Kind: ir.Write, Depth: len(loops)}
		b := ir.Ref{Array: "a", Subscripts: subB, Kind: ir.Read, Depth: len(loops)}
		nest.Refs = []ir.Ref{a, b}
		return nest.Pair(a, b)
	}
	i1 := func(n string) ir.Expr { return ir.NewVar(n) }
	var pairs []ir.Pair

	// Single loop, constant distance.
	pairs = append(pairs, mk(
		[]ir.Loop{{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(100)}},
		[]ir.Expr{i1("i").AddConst(3)}, []ir.Expr{i1("i")}))
	// Strided subscripts (GCD territory).
	pairs = append(pairs, mk(
		[]ir.Loop{{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(50)}},
		[]ir.Expr{ir.NewTerm("i", 2)}, []ir.Expr{ir.NewTerm("i", 2).AddConst(1)}))
	// Coupled 2-D subscripts.
	pairs = append(pairs, mk(
		[]ir.Loop{
			{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(40)},
			{Index: "j", Lower: ir.NewConst(1), Upper: ir.NewConst(40)}},
		[]ir.Expr{i1("i"), i1("j")},
		[]ir.Expr{i1("j").AddConst(2), i1("i").AddConst(1)}))
	// Triangular bounds (inner bound uses the outer index).
	pairs = append(pairs, mk(
		[]ir.Loop{
			{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(30)},
			{Index: "j", Lower: ir.NewVar("i"), Upper: ir.NewConst(30)}},
		[]ir.Expr{i1("j").AddConst(1)}, []ir.Expr{i1("j")}))
	// Banded scaled bounds (Loop Residue / FM territory).
	pairs = append(pairs, mk(
		[]ir.Loop{
			{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(30)},
			{Index: "j", Lower: ir.NewTerm("i", 2), Upper: ir.NewTerm("i", 2).AddConst(5)}},
		[]ir.Expr{i1("j").AddConst(1)}, []ir.Expr{i1("j")}))
	// Triangular three deep: the innermost bounds use both outer indices,
	// so each B-side bound is renamed twice.
	pairs = append(pairs, mk(
		[]ir.Loop{
			{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(20)},
			{Index: "j", Lower: ir.NewVar("i"), Upper: ir.NewConst(20)},
			{Index: "k", Lower: ir.NewVar("i"), Upper: ir.NewVar("j").Add(ir.NewVar("i"))}},
		[]ir.Expr{i1("k").AddConst(1), i1("j")}, []ir.Expr{i1("k"), i1("j")}))
	// Symbolic bound and subscript offset, undeclared (an error) and
	// declared.
	for _, syms := range [][]string{nil, {"n"}} {
		pairs = append(pairs, mk(
			[]ir.Loop{{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewVar("n")}},
			[]ir.Expr{i1("i").Add(ir.NewVar("n")).AddConst(1)},
			[]ir.Expr{i1("i").Add(ir.NewTerm("n", 2))}, syms...))
	}
	return pairs
}

// TestBuilderReuseMatchesFresh: a Builder reused across every pair shape,
// back to back over the same scratch, must produce exactly the Problem a
// fresh Builder produces: same string rendering, variables, side counts,
// equations, bound rows and flags, and the same GCD preprocessing.
func TestBuilderReuseMatchesFresh(t *testing.T) {
	var bld Builder
	for round := 0; round < 2; round++ { // round 2 re-uses warm scratch
		pairs := builderPairs(t)
		for pi := range pairs {
			var fresh Builder
			want, werr := fresh.Build(&pairs[pi])
			got, gerr := bld.Build(&pairs[pi])
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("round %d pair %d: fresh err %v, reused err %v", round, pi, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if ws, gs := want.String(), got.String(); ws != gs {
				t.Fatalf("round %d pair %d: problems differ\nfresh:\n%s\nreused:\n%s", round, pi, ws, gs)
			}
			if !reflect.DeepEqual(want.Vars, got.Vars) || want.NumA != got.NumA || want.NumB != got.NumB ||
				!want.Eq.Equal(got.Eq) || !reflect.DeepEqual(want.RHS, got.RHS) ||
				!reflect.DeepEqual(want.Lower, got.Lower) || !reflect.DeepEqual(want.Upper, got.Upper) ||
				!reflect.DeepEqual(want.Constrains, got.Constrains) {
				t.Fatalf("round %d pair %d: fields differ\nfresh:  %+v\nreused: %+v", round, pi, *want, *got)
			}
			wres, wts, werr := Preprocess(want)
			gres, gts, gerr := Preprocess(got)
			if werr != nil || gerr != nil || wres != gres {
				t.Fatalf("round %d pair %d: preprocess (%v,%v) vs (%v,%v)", round, pi, wres, werr, gres, gerr)
			}
			if (wts == nil) != (gts == nil) {
				t.Fatalf("round %d pair %d: t-system presence differs", round, pi)
			}
			if wts != nil && wts.String() != gts.String() {
				t.Fatalf("round %d pair %d: t-systems differ", round, pi)
			}
		}
	}
}

// TestBuildResolvesPositions pins the name resolution of an imperfect pair:
// the A side under loops i, j and the B side under i, k (k's bounds over
// the outer i), sharing i. A B-side subscript or bound term resolves to a
// B-side loop first; every other name to an A-side index, then a primed
// B-side name, then a symbol.
func TestBuildResolvesPositions(t *testing.T) {
	i := ir.Loop{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewVar("n")}
	j := ir.Loop{Index: "j", Lower: ir.NewConst(1), Upper: ir.NewVar("i")}
	k := ir.Loop{Index: "k", Lower: ir.NewVar("i"), Upper: ir.NewConst(10)}
	pair := ir.Pair{
		A:       ir.Site{Loops: []ir.Loop{i, j}, Ref: ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("i").Add(ir.NewVar("j")).Add(ir.NewVar("k'"))}}},
		B:       ir.Site{Loops: []ir.Loop{i, k}, Ref: ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("k").Add(ir.NewTerm("n", 2))}}},
		Common:  1,
		Symbols: []string{"n"},
	}
	p, err := Build(pair)
	if err != nil {
		t.Fatal(err)
	}
	// Positions: i=0 j=1 | i'=2 k'=3 | n=4.
	if p.NumA != 2 || p.NumB != 2 || len(p.Vars) != 5 {
		t.Fatalf("NumA %d NumB %d vars %v", p.NumA, p.NumB, p.Vars)
	}
	if got := []int64{p.Eq.At(0, 0), p.Eq.At(1, 0), p.Eq.At(2, 0), p.Eq.At(3, 0), p.Eq.At(4, 0)}; !reflect.DeepEqual(got, []int64{1, 1, 0, 0, -2}) {
		// k' on the A side and k on the B side land on one position and cancel.
		t.Fatalf("equation %v, want [1 1 0 0 -2]", got)
	}
	for _, c := range []struct {
		name string
		b    Bound
		want Bound
	}{
		{"upper i", p.Upper[0], Bound{Has: true, Coef: []int64{0, 0, 0, 0, 1}}},
		{"upper j", p.Upper[1], Bound{Has: true, Coef: []int64{1, 0, 0, 0, 0}}},
		{"lower k'", p.Lower[3], Bound{Has: true, Coef: []int64{0, 0, 1, 0, 0}}},
		{"upper k'", p.Upper[3], Bound{Has: true, Const: 10}},
	} {
		if !reflect.DeepEqual(c.b, c.want) {
			t.Errorf("%s = %+v, want %+v", c.name, c.b, c.want)
		}
	}
	if want := []bool{true, true, true, false, true}; !reflect.DeepEqual(p.Constrains, want) {
		t.Errorf("Constrains = %v, want %v", p.Constrains, want)
	}
	if !p.LevelUsed(0) {
		t.Error("level 0 constrains the problem")
	}
	if ai, bi := p.CommonPair(1); ai != 1 || bi != 3 {
		t.Errorf("CommonPair(1) = %d, %d, want 1, 3", ai, bi)
	}
	if !strings.Contains(p.String(), "vars: i j i' k' n") || !strings.Contains(p.String(), "i' ≤ k' ≤ 10") {
		t.Errorf("rendering:\n%s", p)
	}
}

// TestBuildDuplicateNames: two variables that render alike are an error —
// two loops of one side with one index, a symbol named like an index, and
// a symbol spelled like a primed B-side index — while a symbol that only
// ends in a prime is not.
func TestBuildDuplicateNames(t *testing.T) {
	lp := func(idx string) ir.Loop { return ir.Loop{Index: idx, Lower: ir.NewConst(1), Upper: ir.NewConst(10)} }
	mk := func(loops []ir.Loop, symbols ...string) ir.Pair {
		ref := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar(loops[0].Index)}}
		return ir.Pair{A: ir.Site{Loops: loops, Ref: ref}, B: ir.Site{Loops: loops, Ref: ref},
			Common: len(loops), Symbols: symbols}
	}
	for _, c := range []struct {
		name string
		pair ir.Pair
		dup  string
	}{
		{"shadowed loop", mk([]ir.Loop{lp("i"), lp("i")}), `"i"`},
		{"symbol named like an index", mk([]ir.Loop{lp("i")}, "i"), `"i"`},
		{"symbol spelled primed", mk([]ir.Loop{lp("i")}, "i'"), `"i'"`},
		{"primed symbol of no index", mk([]ir.Loop{lp("i")}, "j'"), ""},
	} {
		_, err := Build(c.pair)
		if c.dup == "" {
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "duplicate variable "+c.dup) {
			t.Errorf("%s: error %v, want duplicate variable %s", c.name, err, c.dup)
		}
	}
}

// TestBuilderOverflow: a right-hand side or an equality coefficient past
// int64 is linalg.ErrOverflow, not a wrapped value. In the first case,
// a[i - MaxInt64] vs a[i + MaxInt64], the true difference is 2^64 - 2;
// wrapped, it reads -2, which SVPC would solve exactly.
func TestBuilderOverflow(t *testing.T) {
	mk := func(subA, subB ir.Expr, symbols ...string) ir.Pair {
		loops := []ir.Loop{{Index: "i", Lower: ir.NewConst(1), Upper: ir.NewConst(10)}}
		nest := &ir.Nest{Label: "t", Loops: loops, Symbols: symbols}
		a := ir.Ref{Array: "a", Subscripts: []ir.Expr{subA}, Kind: ir.Write, Depth: 1}
		b := ir.Ref{Array: "a", Subscripts: []ir.Expr{subB}, Kind: ir.Read, Depth: 1}
		nest.Refs = []ir.Ref{a, b}
		return nest.Pair(a, b)
	}
	i := ir.NewVar("i")
	for _, c := range []struct {
		name string
		pair ir.Pair
	}{
		{"constant", mk(i.AddConst(-math.MaxInt64), i.AddConst(math.MaxInt64))},
		{"coefficient above", mk(i.Add(ir.NewTerm("n", math.MaxInt64)), i.Add(ir.NewTerm("n", -1)), "n")},
		{"coefficient below", mk(i.Add(ir.NewTerm("n", math.MinInt64)), i.Add(ir.NewTerm("n", 1)), "n")},
	} {
		var bld Builder
		if _, err := bld.Build(&c.pair); !errors.Is(err, linalg.ErrOverflow) {
			t.Errorf("%s: Builder.Build error %v, want linalg.ErrOverflow", c.name, err)
		}
		// The package-level Build runs the same checks; it used to compute
		// subA.Sub(subB) and wrap.
		if _, err := Build(c.pair); !errors.Is(err, linalg.ErrOverflow) {
			t.Errorf("%s: Build error %v, want linalg.ErrOverflow", c.name, err)
		}
	}
}

// TestBuilderScratchInvalidation documents the aliasing contract: a Problem
// returned by Builder.Build is only valid until the next Build on the same
// Builder. The test pins that the previous Problem really is overwritten
// (so callers that need persistence must copy), which is what makes the
// allocation-free steady state possible.
func TestBuilderScratchInvalidation(t *testing.T) {
	pairs := builderPairs(t)
	var bld Builder
	p1, err := bld.Build(&pairs[0])
	if err != nil {
		t.Fatal(err)
	}
	before := p1.String()
	if _, err := bld.Build(&pairs[2]); err != nil {
		t.Fatal(err)
	}
	if p1.String() == before {
		t.Skip("scratch happened to be disjoint for these shapes")
	}
}

// TestBuildZeroAllocs gates a warm Builder.Build, with CommonPair and
// LevelUsed at every common level, at zero allocations over rectangular
// nests, triangular nests (whose bound rows are carved from the Builder's
// arena) and symbols. Part of the Makefile allocgate.
func TestBuildZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	var pairs []ir.Pair
	var bld Builder
	for _, p := range builderPairs(t) { // warm the scratch
		if _, err := bld.Build(&p); err == nil { // errors allocate their message
			pairs = append(pairs, p)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := range pairs {
			p, err := bld.Build(&pairs[i])
			if err != nil {
				t.Fatal(err)
			}
			for lvl := 0; lvl < p.Common; lvl++ {
				if ai, bi := p.CommonPair(lvl); ai < 0 || bi < 0 {
					t.Fatalf("level %d is common but CommonPair = %d, %d", lvl, ai, bi)
				}
				_ = p.LevelUsed(lvl)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm Build sweep allocates %.1f times, want 0", allocs)
	}
}
