package system

import (
	"math"
	"testing"

	"exactdep/internal/ir"
)

// overflowPair is a dependent pair whose lower bound cannot be re-expressed
// over t in int64: for i = -(2^63-1) to 10 { a[i] = a[i+5] } puts
// i = t + 5, and L(x) - i = -(2^63-1) - 5 - t overflows.
func overflowPair() ir.Pair {
	nest := &ir.Nest{
		Label: "overflow",
		Loops: []ir.Loop{{Index: "i", Lower: ir.NewConst(-math.MaxInt64), Upper: ir.NewConst(10)}},
	}
	a := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("i")}, Kind: ir.Write, Depth: 1}
	b := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("i").AddConst(5)}, Kind: ir.Read, Depth: 1}
	nest.Refs = []ir.Ref{a, b}
	return nest.Pair(a, b)
}

// preprocessorProblems builds the problems of builderPairs (Build errors
// left out) plus overflowPair's, each with its own storage so that they
// outlive one another. It returns the positions of the GCD-independent and
// the overflowing problem too.
func preprocessorProblems(t *testing.T) (probs []*Problem, gcdIndep, overflow int) {
	t.Helper()
	gcdIndep, overflow = -1, -1
	for _, pair := range append(builderPairs(t), overflowPair()) {
		p, err := Build(pair)
		if err != nil {
			continue
		}
		res, _, err := Preprocess(p)
		switch {
		case err != nil:
			overflow = len(probs)
		case res == GCDIndependent:
			gcdIndep = len(probs)
		}
		probs = append(probs, p)
	}
	if gcdIndep < 0 || overflow < 0 {
		t.Fatalf("premise: want a GCD-independent and an overflowing problem, got positions %d and %d", gcdIndep, overflow)
	}
	return probs, gcdIndep, overflow
}

// TestPreprocessorMatchesPreprocess runs one Preprocessor over the problems
// in several orders — the largest before the smallest, and the
// GCD-independent and overflowing problems between others, so that each
// call starts from scratch another shape left behind — and checks every
// call against a fresh Preprocess: verdict, error, NumT, Infeasible and the
// rendered system.
func TestPreprocessorMatchesPreprocess(t *testing.T) {
	probs, gcdIndep, overflow := preprocessorProblems(t)
	largest, smallest := 0, 0
	for i, p := range probs {
		if len(p.Vars) > len(probs[largest].Vars) {
			largest = i
		}
		if len(p.Vars) < len(probs[smallest].Vars) {
			smallest = i
		}
	}
	var forward, backward, mixed []int
	for i := range probs {
		forward = append(forward, i)
		backward = append(backward, len(probs)-1-i)
		mixed = append(mixed, largest, gcdIndep, i, overflow, smallest)
	}
	var pp Preprocessor
	for _, order := range [][]int{forward, backward, mixed} {
		for _, i := range order {
			wres, wts, werr := Preprocess(probs[i])
			gres, gts, gerr := pp.Preprocess(probs[i])
			if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("problem %d: Preprocess err %v, Preprocessor err %v", i, werr, gerr)
			}
			if wres != gres || (wts == nil) != (gts == nil) {
				t.Fatalf("problem %d: verdict %v (system %v), Preprocessor %v (system %v)", i, wres, wts != nil, gres, gts != nil)
			}
			if wts == nil {
				continue
			}
			if wts.NumT != gts.NumT || wts.Infeasible != gts.Infeasible || wts.String() != gts.String() {
				t.Fatalf("problem %d: systems differ\nPreprocess:\n%s(infeasible %v)\nPreprocessor:\n%s(infeasible %v)",
					i, wts, wts.Infeasible, gts, gts.Infeasible)
			}
		}
	}
}

// TestPreprocessorScratchInvalidation documents the aliasing contract: the
// TSystem a Preprocessor returns is its one reused system, valid only until
// the next call, so a caller that needs it longer must copy it first.
func TestPreprocessorScratchInvalidation(t *testing.T) {
	pairs := builderPairs(t)
	p1, err := Build(pairs[0])
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(pairs[2])
	if err != nil {
		t.Fatal(err)
	}
	var pp Preprocessor
	_, ts1, err := pp.Preprocess(p1)
	if err != nil {
		t.Fatal(err)
	}
	before := ts1.String()
	_, ts2, err := pp.Preprocess(p2)
	if err != nil {
		t.Fatal(err)
	}
	if ts2 != ts1 {
		t.Fatal("the Preprocessor must hand back its one reused TSystem")
	}
	if ts1.String() == before {
		t.Fatal("the first system must be overwritten by the second call")
	}
}

// TestPreprocessZeroAllocs gates a warm Preprocessor at zero allocations
// over rectangular, triangular, three-deep, symbolic and GCD-independent
// problems. Part of the Makefile allocgate.
func TestPreprocessZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	probs, _, overflow := preprocessorProblems(t)
	probs = append(probs[:overflow], probs[overflow+1:]...) // errors allocate their message
	var pp Preprocessor
	sweep := func() {
		for _, p := range probs {
			if _, _, err := pp.Preprocess(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep() // warm the scratch
	if allocs := testing.AllocsPerRun(100, sweep); allocs != 0 {
		t.Fatalf("a warm Preprocess sweep allocates %.1f times, want 0", allocs)
	}
}
