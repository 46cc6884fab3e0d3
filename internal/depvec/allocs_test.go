package depvec

// Allocation gates and benchmarks for the clone-free refinement walk. The
// point of the trail is that a refinement *node* — mark, push direction
// rows, test, pop, release — costs no allocations once the workspace is
// warm; the old walk cloned the whole system per node, O(3^d) deep copies
// on a d-level nest. Result materialization (appending surviving vectors to
// the Summary) still allocates per *surviving leaf*, which is output, not
// walk overhead; the gates below therefore drive walks with no surviving
// vectors. The cascade's own zero-allocation property is gated separately
// in internal/dtest (TestCascadeZeroAllocs, TestFMSolveZeroAllocs).

import (
	"testing"

	"exactdep/internal/dtest"
	"exactdep/internal/ir"
	"exactdep/internal/system"
)

// fractionalSystem is the §6 endnote system whose only rational solution is
// t1 = 1/2: base test Unknown (with explicit branch-and-bound disabled),
// every direction refuted — the implicit branch-and-bound walk, which
// visits every refinement node yet materializes no vectors.
func fractionalSystem() *system.TSystem {
	prob := &system.Problem{
		Vars: []system.Variable{
			{Name: "i", Kind: system.IndexA, Level: 0},
			{Name: "i'", Kind: system.IndexB, Level: 0},
		},
		Common: 1,
	}
	return &system.TSystem{
		NumT: 2,
		XOf: []system.TExpr{
			{Coef: []int64{1, 0}},
			{Coef: []int64{0, 1}},
		},
		Cons: []system.Constraint{
			{Coef: []int64{2, -3}, C: 1},
			{Coef: []int64{-2, 3}, C: -1},
			{Coef: []int64{0, 1}, C: 0},
			{Coef: []int64{0, -1}, C: 0},
		},
		Prob: prob,
	}
}

// independentPair is refuted at the base (*) test: a[i+10] vs a[i] over
// i = 1..10.
func independentPair(t testing.TB) *system.TSystem {
	nest := &ir.Nest{Label: "alloc", Loops: []ir.Loop{loop("i", 1, 10)}}
	a := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("i").AddConst(10)}, Kind: ir.Write, Depth: 1}
	b := ir.Ref{Array: "a", Subscripts: []ir.Expr{ir.NewVar("i")}, Kind: ir.Read, Depth: 1}
	nest.Refs = []ir.Ref{a, b}
	p, err := system.Build(nest.Pair(a, b))
	if err != nil {
		t.Fatal(err)
	}
	_, ts, err := system.Preprocess(p)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestRefineZeroAllocs enforces the PR's acceptance criterion: the
// refinement walk's steady state allocates nothing per node.
func TestRefineZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	t.Run("independent-base", func(t *testing.T) {
		// One cascade test, no refinement: the Refiner+Pipeline pair must
		// make the whole call allocation-free.
		ts := independentPair(t)
		rf := NewRefiner()
		p := dtest.DefaultConfig().NewPipeline()
		opts := Options{PruneUnused: true, Refiner: rf, Pipeline: p}
		if sum := ComputeObserved(ts, opts, nil); sum.Dependent {
			t.Fatalf("premise: pair must be independent, got %+v", sum)
		}
		for i := 0; i < 3; i++ {
			ComputeObserved(ts, opts, nil)
		}
		if n := testing.AllocsPerRun(100, func() { ComputeObserved(ts, opts, nil) }); n != 0 {
			t.Errorf("steady-state base test allocated %.1f times per call", n)
		}
	})
	t.Run("implicit-bb-walk", func(t *testing.T) {
		// The implicit branch-and-bound walk through a real pipeline: base
		// Unknown, every direction refuted — all refinement nodes visited
		// (mark, push, test, pop, release), no vectors materialized. The
		// cascade may allocate on these systems, so the gate is relative:
		// the walk must allocate exactly what its cascade runs allocate on
		// the same node systems solved directly, leaving zero for the
		// per-node trail bracket.
		dtest.EnableExplicitBranchAndBound = false
		defer func() { dtest.EnableExplicitBranchAndBound = true }()
		ts := fractionalSystem()
		p := dtest.DefaultConfig().NewPipeline()
		opts := Options{Refiner: NewRefiner(), Pipeline: p}
		if sum := ComputeObserved(ts, opts, nil); !sum.ImplicitBB || sum.TestsRun != 4 {
			t.Fatalf("premise: walk must run the base and three direction tests and refine to implicit B&B, got %+v", sum)
		}
		nodes := []*system.TSystem{ts}
		for _, dir := range []Direction{Less, Equal, Greater} {
			n := ts.Clone()
			if err := n.AddDirection(0, byte(dir)); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, n)
		}
		direct := func() {
			for _, n := range nodes {
				p.Run(n)
			}
		}
		walk := func() { ComputeObserved(ts, opts, nil) }
		for i := 0; i < 3; i++ {
			direct()
			walk()
		}
		want := testing.AllocsPerRun(100, direct)
		if got := testing.AllocsPerRun(100, walk); got != want {
			t.Errorf("steady-state walk allocated %.0f times per call, its %d cascade runs %.0f: the refinement bracket must allocate nothing",
				got, len(nodes), want)
		}
	})
}

// BenchmarkRefinementDeep compares the refinement strategies over coupled
// 3- and 4-level nests that reach Fourier–Motzkin at many nodes: the
// clone-per-node reference walk against the clone-free trail walk. tests/op
// reports cascade invocations per analyzed pair.
func BenchmarkRefinementDeep(b *testing.B) {
	for _, depth := range []int{3, 4} {
		ts := fmHardNest(b, depth)
		opts := Options{PruneUnused: true}
		b.Run(benchName("reference", depth), func(b *testing.B) {
			tests := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sum := ComputeReference(ts.Clone(), opts, nil)
				tests += sum.TestsRun
			}
			b.ReportMetric(float64(tests)/float64(b.N), "tests/op")
		})
		b.Run(benchName("trail", depth), func(b *testing.B) {
			rf := NewRefiner()
			p := dtest.DefaultConfig().NewPipeline()
			o := opts
			o.Refiner, o.Pipeline = rf, p
			tests := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sum := ComputeObserved(ts, o, nil)
				tests += sum.TestsRun
			}
			b.ReportMetric(float64(tests)/float64(b.N), "tests/op")
		})
	}
}

func benchName(kind string, depth int) string {
	return kind + "/depth=" + string(rune('0'+depth))
}
