package depvec

// Differential suite for the clone-free refinement walk: ComputeObserved
// (trail + optional memo) must agree with ComputeReference (the retained
// clone-per-node walk) on every observable — verdict, exactness, trip,
// vectors, distances, and test counts — across random nests, FM-hard
// shapes, pruning variants, and budget limits. The two walks enumerate
// directions in the same order, so even the vector order must match.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"exactdep/internal/dtest"
	"exactdep/internal/ir"
	"exactdep/internal/system"
)

// randNest builds a random nest of the given depth with one write/read pair
// whose subscripts are random affine combinations of the loop indices.
// Returns nil when preprocessing rejects the pair (GCD-independent), which
// the caller skips.
func randNest(rng *rand.Rand, depth int) *system.TSystem {
	loops := make([]ir.Loop, depth)
	idx := make([]string, depth)
	for i := range loops {
		idx[i] = fmt.Sprintf("i%d", i+1)
		lo := rng.Int63n(3)
		loops[i] = loop(idx[i], lo, lo+2+rng.Int63n(12))
	}
	dims := 1 + rng.Intn(2)
	sub := func() []ir.Expr {
		out := make([]ir.Expr, dims)
		for d := range out {
			e := ir.NewConst(rng.Int63n(5) - 2)
			for _, v := range idx {
				if c := rng.Int63n(5) - 2; c != 0 && rng.Intn(2) == 0 {
					e = e.Add(ir.NewTerm(v, c))
				}
			}
			out[d] = e
		}
		return out
	}
	nest := &ir.Nest{Label: "rand", Loops: loops}
	a := ir.Ref{Array: "a", Subscripts: sub(), Kind: ir.Write, Depth: depth}
	b := ir.Ref{Array: "a", Subscripts: sub(), Kind: ir.Read, Depth: depth}
	nest.Refs = []ir.Ref{a, b}
	p, err := system.Build(nest.Pair(a, b))
	if err != nil {
		return nil
	}
	res, ts, err := system.Preprocess(p)
	if err != nil || res == system.GCDIndependent {
		return nil
	}
	return ts
}

// fmHardNest is a coupled deep nest that reaches Fourier–Motzkin: the write
// couples adjacent levels (a[i1+i2][i3+i4+1]... style), defeating the cheap
// stages at many refinement nodes.
func fmHardNest(t testing.TB, depth int) *system.TSystem {
	t.Helper()
	loops := make([]ir.Loop, depth)
	idx := make([]string, depth)
	for i := range loops {
		idx[i] = fmt.Sprintf("i%d", i+1)
		loops[i] = loop(idx[i], 0, 9)
	}
	var subA, subB []ir.Expr
	for d := 0; d+1 < depth; d++ {
		subA = append(subA, ir.NewTerm(idx[d], 2).Add(ir.NewVar(idx[d+1])).AddConst(1))
		subB = append(subB, ir.NewVar(idx[d]).Add(ir.NewTerm(idx[d+1], 2)))
	}
	subA = append(subA, ir.NewVar(idx[depth-1]))
	subB = append(subB, ir.NewVar(idx[depth-1]))
	nest := &ir.Nest{Label: "fmhard", Loops: loops}
	a := ir.Ref{Array: "a", Subscripts: subA, Kind: ir.Write, Depth: depth}
	b := ir.Ref{Array: "a", Subscripts: subB, Kind: ir.Read, Depth: depth}
	nest.Refs = []ir.Ref{a, b}
	p, err := system.Build(nest.Pair(a, b))
	if err != nil {
		t.Fatal(err)
	}
	res, ts, err := system.Preprocess(p)
	if err != nil {
		t.Fatal(err)
	}
	if res == system.GCDIndependent {
		t.Fatal("fmHardNest must not be GCD-independent")
	}
	return ts
}

// comparable strips the counters that legitimately differ between the two
// walks (trail accounting exists only in the optimized one).
func comparable(s Summary) Summary {
	s.TrailPushes, s.TrailPops, s.TrailMaxDepth = 0, 0, 0
	return s
}

func diffOne(t *testing.T, ts *system.TSystem, opts Options, label string) {
	t.Helper()
	obs := ComputeObserved(ts.Clone(), opts, nil)
	ref := ComputeReference(ts.Clone(), opts, nil)
	if !reflect.DeepEqual(comparable(obs), comparable(ref)) {
		t.Errorf("%s: observed and reference walks disagree\n obs %+v\n ref %+v", label, obs, ref)
	}
	if obs.TrailPushes != obs.TrailPops {
		t.Errorf("%s: unbalanced trail: %d pushes, %d pops", label, obs.TrailPushes, obs.TrailPops)
	}
}

var diffOpts = []Options{
	{},
	{PruneUnused: true},
	{PruneDistance: true},
	{PruneUnused: true, PruneDistance: true},
}

// TestRefineDifferentialRandom sweeps random nests of depth 1–4 through
// every pruning variant.
func TestRefineDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tested := 0
	for tested < 120 {
		ts := randNest(rng, 1+rng.Intn(4))
		if ts == nil {
			continue
		}
		tested++
		for i, opts := range diffOpts {
			diffOne(t, ts, opts, fmt.Sprintf("random %d opts %d", tested, i))
		}
	}
}

// TestRefineDifferentialFMHard drives the coupled deep nests, with and
// without a per-test budget: budget-degraded walks must degrade identically.
func TestRefineDifferentialFMHard(t *testing.T) {
	for _, depth := range []int{2, 3, 4} {
		ts := fmHardNest(t, depth)
		for i, opts := range diffOpts {
			diffOne(t, ts, opts, fmt.Sprintf("fmhard depth %d opts %d", depth, i))
		}
		for _, lim := range []int{1, 2, 8} {
			po := dtest.DefaultConfig().NewPipeline()
			po.SetBudget(dtest.Budget{MaxFMEliminations: lim})
			pr := dtest.DefaultConfig().NewPipeline()
			pr.SetBudget(dtest.Budget{MaxFMEliminations: lim})
			obs := ComputeObserved(ts.Clone(), Options{Pipeline: po}, nil)
			ref := ComputeReference(ts.Clone(), Options{Pipeline: pr}, nil)
			if !reflect.DeepEqual(comparable(obs), comparable(ref)) {
				t.Errorf("fmhard depth %d budget %d: walks disagree\n obs %+v\n ref %+v",
					depth, lim, obs, ref)
			}
		}
	}
}

// TestRefineRestoresSystem pins the trail discipline: ComputeObserved
// mutates ts during the walk but must restore it — same constraint count,
// same rendering — before returning.
func TestRefineRestoresSystem(t *testing.T) {
	ts := fmHardNest(t, 3)
	before := ts.String()
	nCons := len(ts.Cons)
	ComputeObserved(ts, Options{PruneUnused: true, PruneDistance: true}, nil)
	if len(ts.Cons) != nCons {
		t.Fatalf("walk left %d constraints, want %d", len(ts.Cons), nCons)
	}
	if after := ts.String(); after != before {
		t.Fatalf("walk did not restore the system:\nbefore %s\nafter  %s", before, after)
	}
}
