package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
	"exactdep/internal/ir"
	"exactdep/internal/system"
)

// The differential oracle: generate random small loop nests with affine
// subscripts, enumerate every iteration pair by brute force, and require
// the analyzer's verdict — and its full set of direction vectors — to match
// ground truth exactly. This exercises the complete stack (system build,
// Extended GCD, all four tests, hierarchical refinement, pruning) against
// an independent implementation of the problem's semantics.

// randNest builds a random nest of depth 1–3 with constant or triangular
// bounds, and a pair of refs with 1–2 dimensions of random affine
// subscripts over the indices.
func randNest(rng *rand.Rand) ir.Pair {
	depth := 1 + rng.Intn(3)
	names := []string{"i", "j", "k"}[:depth]
	loops := make([]ir.Loop, depth)
	for d := 0; d < depth; d++ {
		lo := int64(rng.Intn(3))
		hi := lo + int64(rng.Intn(5)) // trip counts 1..5 keep brute force fast
		loops[d] = ir.Loop{Index: names[d], Lower: ir.NewConst(lo), Upper: ir.NewConst(hi)}
		if d > 0 && rng.Intn(4) == 0 {
			// triangular: lower bound from an outer index
			loops[d].Lower = ir.NewVar(names[rng.Intn(d)])
			loops[d].Upper = ir.NewConst(hi + 2)
		}
	}
	dims := 1 + rng.Intn(2)
	mkSubs := func() []ir.Expr {
		subs := make([]ir.Expr, dims)
		for d := 0; d < dims; d++ {
			e := ir.NewConst(int64(rng.Intn(7) - 3))
			for _, v := range names {
				if rng.Intn(2) == 0 {
					e = e.Add(ir.NewTerm(v, int64(rng.Intn(5)-2)))
				}
			}
			subs[d] = e
		}
		return subs
	}
	nest := &ir.Nest{Label: "rand", Loops: loops}
	a := ir.Ref{Array: "a", Subscripts: mkSubs(), Kind: ir.Write, Depth: depth}
	b := ir.Ref{Array: "a", Subscripts: mkSubs(), Kind: ir.Read, Depth: depth}
	nest.Refs = []ir.Ref{a, b}
	return nest.Pair(a, b)
}

// enumerate walks the full iteration space of the nest (respecting
// triangular bounds) and calls f with each index assignment.
func enumerate(loops []ir.Loop, env map[string]int64, d int, f func(map[string]int64)) {
	if d == len(loops) {
		f(env)
		return
	}
	l := loops[d]
	lo, ok1 := l.Lower.Eval(env)
	hi, ok2 := l.Upper.Eval(env)
	if !ok1 || !ok2 {
		panic("unbounded loop in differential test")
	}
	for v := lo; v <= hi; v++ {
		env[l.Index] = v
		enumerate(loops, env, d+1, f)
	}
	delete(env, l.Index)
}

// groundTruth brute-forces the conflict set and the direction vectors.
func groundTruth(p ir.Pair) (dependent bool, vectors []string) {
	loops := p.A.Loops
	set := map[string]bool{}
	var iterA []map[string]int64
	enumerate(loops, map[string]int64{}, 0, func(env map[string]int64) {
		cp := make(map[string]int64, len(env))
		for k, v := range env {
			cp[k] = v
		}
		iterA = append(iterA, cp)
	})
	for _, ea := range iterA {
		for _, eb := range iterA {
			conflict := true
			for d := range p.A.Ref.Subscripts {
				va, _ := p.A.Ref.Subscripts[d].Eval(ea)
				vb, _ := p.B.Ref.Subscripts[d].Eval(eb)
				if va != vb {
					conflict = false
					break
				}
			}
			if !conflict {
				continue
			}
			dependent = true
			vec := make([]byte, 0, len(loops))
			for _, l := range loops {
				switch {
				case ea[l.Index] < eb[l.Index]:
					vec = append(vec, '<')
				case ea[l.Index] > eb[l.Index]:
					vec = append(vec, '>')
				default:
					vec = append(vec, '=')
				}
			}
			set[string(vec)] = true
		}
	}
	for v := range set {
		vectors = append(vectors, v)
	}
	sort.Strings(vectors)
	return dependent, vectors
}

// expandStars turns the analyzer's vectors (which may contain '*') into the
// explicit direction set realized over the iteration space, so they can be
// compared with ground truth. A '*' includes only the directions that are
// actually realizable, so expansion may overapproximate; the containment
// check below accounts for that.
func expandStars(vs []depvec.Vector) map[string]bool {
	out := map[string]bool{}
	var rec func(prefix []byte, rest depvec.Vector)
	rec = func(prefix []byte, rest depvec.Vector) {
		if len(rest) == 0 {
			out[string(prefix)] = true
			return
		}
		switch rest[0] {
		case depvec.Any:
			for _, d := range []byte{'<', '=', '>'} {
				rec(append(prefix, d), rest[1:])
			}
		default:
			rec(append(prefix, byte(rest[0])), rest[1:])
		}
	}
	for _, v := range vs {
		rec(nil, v)
	}
	return out
}

func TestDifferentialEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1991))
	configs := []Options{
		{},
		{DirectionVectors: true},
		{DirectionVectors: true, PruneUnused: true, PruneDistance: true},
		{Memoize: true, ImprovedMemo: true, DirectionVectors: true, PruneUnused: true, PruneDistance: true},
		{Memoize: true, ImprovedMemo: true, DirectionVectors: true, PruneUnused: true, PruneDistance: true, Cascade: "fm-only"},
		// A count budget small enough to trip: its Maybe verdicts are
		// conservative, every other verdict must still be right.
		{DirectionVectors: true, PruneUnused: true, PruneDistance: true, Budget: dtest.Budget{MaxFMEliminations: 1, MaxBranchNodes: 1}},
	}
	analyzers := make([]*Analyzer, len(configs))
	for i, c := range configs {
		analyzers[i] = New(c)
	}
	const iters = 1500
	maybes := 0
	for iter := 0; iter < iters; iter++ {
		pair := randNest(rng)
		wantDep, wantVecs := groundTruth(pair)
		for ci, a := range analyzers {
			res, err := a.AnalyzePair(pair)
			if err != nil {
				t.Fatalf("iter %d config %d: %v\n%s", iter, ci, err, describe(pair))
			}
			switch res.Outcome {
			case dtest.Independent:
				if wantDep {
					t.Fatalf("iter %d config %d: analyzer says independent, brute force found conflicts\n%s",
						iter, ci, describe(pair))
				}
			case dtest.Dependent:
				if !wantDep {
					t.Fatalf("iter %d config %d: analyzer says dependent (exact), brute force found none\n%s",
						iter, ci, describe(pair))
				}
			case dtest.Unknown:
				t.Fatalf("iter %d config %d: unexpected inexact verdict\n%s", iter, ci, describe(pair))
			case dtest.Maybe:
				if !configs[ci].Budget.Limited() {
					t.Fatalf("iter %d config %d: Maybe without a budget\n%s", iter, ci, describe(pair))
				}
				maybes++
			}
			if !configs[ci].DirectionVectors || res.Outcome != dtest.Dependent {
				continue
			}
			// Every ground-truth vector must be covered by some reported
			// vector, and every reported non-'*' vector must be realizable.
			got := expandStars(res.Vectors)
			for _, w := range wantVecs {
				if !got[w] {
					t.Fatalf("iter %d config %d: missing direction vector %q (got %v, want %v)\n%s",
						iter, ci, w, res.Vectors, wantVecs, describe(pair))
				}
			}
			wantSet := map[string]bool{}
			for _, w := range wantVecs {
				wantSet[w] = true
			}
			for _, v := range res.Vectors {
				if hasStar(v) {
					continue // '*' components are deliberate overapproximations
				}
				if !wantSet[string(vecBytes(v))] {
					t.Fatalf("iter %d config %d: spurious direction vector %v (want %v)\n%s",
						iter, ci, v, wantVecs, describe(pair))
				}
			}
		}
	}
	if maybes == 0 {
		t.Error("the count budget never tripped: no pair came back Maybe")
	}
	t.Logf("%d budgeted pairs came back Maybe", maybes)
}

func hasStar(v depvec.Vector) bool {
	for _, d := range v {
		if d == depvec.Any {
			return true
		}
	}
	return false
}

func vecBytes(v depvec.Vector) []byte {
	out := make([]byte, len(v))
	for i, d := range v {
		out[i] = byte(d)
	}
	return out
}

// describe renders a failing pair with its loop bounds for reproduction.
func describe(p ir.Pair) string {
	s := ""
	for _, l := range p.A.Loops {
		s += fmt.Sprintf("%s; ", l.String())
	}
	s += fmt.Sprintf("A=%s B=%s", p.A.Ref, p.B.Ref)
	if prob, err := system.Build(p); err == nil {
		s += "\n" + prob.String()
	}
	return s
}
