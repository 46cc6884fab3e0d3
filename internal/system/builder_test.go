package system

import (
	"errors"
	"fmt"
	"math"
	"reflect"
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

// TestBuilderMatchesBuild: the scratch-reusing Builder must produce exactly
// the Problem the allocating Build produces — same string rendering, same
// variables, same GCD preprocessing verdict — on every pair shape,
// including back-to-back builds over the same scratch.
func TestBuilderMatchesBuild(t *testing.T) {
	var bld Builder
	for round := 0; round < 2; round++ { // round 2 re-uses warm scratch
		for pi, pair := range builderPairs(t) {
			want, werr := Build(pair)
			got, gerr := bld.Build(pair)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("round %d pair %d: Build err %v, Builder err %v", round, pi, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if ws, gs := want.String(), got.String(); ws != gs {
				t.Fatalf("round %d pair %d: problems differ\nBuild:\n%s\nBuilder:\n%s", round, pi, ws, gs)
			}
			if !reflect.DeepEqual(want.Vars, got.Vars) {
				t.Fatalf("round %d pair %d: vars %v vs %v", round, pi, want.Vars, got.Vars)
			}
			wres, wts, werr := Preprocess(want)
			gres, gts, gerr := Preprocess(got)
			if werr != nil || gerr != nil || wres != gres {
				t.Fatalf("round %d pair %d: preprocess (%v,%v) vs (%v,%v)", round, pi, wres, werr, gres, gerr)
			}
			if (wts == nil) != (gts == nil) {
				t.Fatalf("round %d pair %d: t-system presence differs", round, pi)
			}
			if wts != nil && fmt.Sprintf("%+v", wts) != fmt.Sprintf("%+v", gts) {
				t.Fatalf("round %d pair %d: t-systems differ", round, pi)
			}
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
		if _, err := bld.Build(c.pair); !errors.Is(err, linalg.ErrOverflow) {
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
	p1, err := bld.Build(pairs[0])
	if err != nil {
		t.Fatal(err)
	}
	before := p1.String()
	if _, err := bld.Build(pairs[2]); err != nil {
		t.Fatal(err)
	}
	if p1.String() == before {
		t.Skip("scratch happened to be disjoint for these shapes")
	}
}

// TestBuildZeroAllocs gates a warm Builder.Build at zero allocations over
// rectangular nests, triangular nests (whose B-side bounds are renamed onto
// primed indices, their terms carved from the Builder's arena) and symbols.
// Part of the Makefile allocgate.
func TestBuildZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	var pairs []ir.Pair
	var bld Builder
	for _, p := range builderPairs(t) { // warm the scratch
		if _, err := bld.Build(p); err == nil { // errors allocate their message
			pairs = append(pairs, p)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range pairs {
			if _, err := bld.Build(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm Build sweep allocates %.1f times, want 0", allocs)
	}
}
