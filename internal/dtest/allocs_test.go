package dtest

// Allocation tests and benchmarks for the cascade's steady state: once a
// pipeline's scratch buffers have grown to fit the problem shapes flowing
// through it, a problem decided by one of the cheap tests must allocate
// nothing. That is the property that makes the paper's cost ordering real —
// an SVPC probe priced at ~0.1 ms (§7) cannot afford a garbage-collected
// clone of the system per call.

import (
	"testing"

	"exactdep/internal/system"
)

// svpcSys is decided by SVPC: every constraint is single-variable
// (1 ≤ t1 ≤ 10, feasible → Dependent).
func svpcSys() *system.TSystem {
	return sys(1,
		system.Constraint{Coef: []int64{1}, C: 10},
		system.Constraint{Coef: []int64{-1}, C: -1})
}

// acyclicSys is decided by the Acyclic test: one coupling constraint
// t1 ≤ t2 (one-sided in both variables), bounds 0 ≤ t1, t2 ≤ 10.
func acyclicSys() *system.TSystem {
	return sys(2,
		system.Constraint{Coef: []int64{1, -1}, C: 0},
		system.Constraint{Coef: []int64{0, 1}, C: 10},
		system.Constraint{Coef: []int64{-1, 0}, C: 0})
}

// residueSys is decided by Loop Residue: the difference constraints
// t1 - t2 ≤ -1 and t2 - t1 ≤ 0 form a cycle (so Acyclic is inapplicable)
// of weight -1 (so the system is Independent).
func residueSys() *system.TSystem {
	return sys(2,
		system.Constraint{Coef: []int64{1, -1}, C: -1},
		system.Constraint{Coef: []int64{-1, 1}, C: 0})
}

// residueDepSys is decided by Loop Residue with a Dependent verdict (cycle
// of weight +1, Bellman–Ford potentials give the witness).
func residueDepSys() *system.TSystem {
	return sys(2,
		system.Constraint{Coef: []int64{1, -1}, C: 1},
		system.Constraint{Coef: []int64{-1, 1}, C: 0})
}

// fmSys falls through to Fourier–Motzkin: the coefficient 2 keeps Loop
// Residue inapplicable and both variables are two-sided, so Acyclic cannot
// make progress either.
func fmSys() *system.TSystem {
	return sys(2,
		system.Constraint{Coef: []int64{2, -1}, C: 0},
		system.Constraint{Coef: []int64{-2, 1}, C: -1})
}

// TestCascadeZeroAllocs enforces the acceptance criterion: at steady state
// the cascade path of a problem decided by SVPC, Acyclic, or Loop Residue
// performs zero allocations per problem. (Fourier–Motzkin, the rare
// expensive backup, still allocates in its elimination loop.)
func TestCascadeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	cases := []struct {
		name string
		ts   *system.TSystem
		kind Kind
	}{
		{"svpc", svpcSys(), KindSVPC},
		{"acyclic", acyclicSys(), KindAcyclic},
		{"residue-independent", residueSys(), KindLoopResidue},
		{"residue-dependent", residueDepSys(), KindLoopResidue},
	}
	p := DefaultConfig().NewPipeline()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if r := p.Run(c.ts); r.Kind != c.kind {
				t.Fatalf("decided by %v, want %v", r.Kind, c.kind)
			}
			for i := 0; i < 3; i++ { // let every buffer reach steady state
				p.Run(c.ts)
			}
			if n := testing.AllocsPerRun(100, func() { p.Run(c.ts) }); n != 0 {
				t.Errorf("steady-state cascade allocated %.1f times per problem", n)
			}
		})
	}
	t.Run("mixed", func(t *testing.T) {
		// Alternating problem shapes through one pipeline must stay
		// allocation-free too: buffers are sized to the largest shape seen,
		// not reallocated per shape.
		systems := []*system.TSystem{svpcSys(), acyclicSys(), residueSys(), residueDepSys()}
		for i := 0; i < 3; i++ {
			for _, ts := range systems {
				p.Run(ts)
			}
		}
		n := testing.AllocsPerRun(50, func() {
			for _, ts := range systems {
				p.Run(ts)
			}
		})
		if n != 0 {
			t.Errorf("steady-state cascade allocated %.1f times per 4-problem batch", n)
		}
	})
}

// TestFMSolveZeroAllocs gates the Fourier–Motzkin core itself: once the
// scratch — constraint list, round buffers, bound store, dedup hash set,
// witness arrays — is warm, an elimination that decides (either way)
// allocates nothing. Only explicit branch-and-bound splits may allocate.
func TestFMSolveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	// fmDepSys is feasible with integral samples: 2t1 - t2 ≤ 2, t2 ≤ 2t1,
	// boxed. The coefficient 2 keeps Loop Residue inapplicable and both
	// variables two-sided, so FM decides Dependent via back-substitution.
	fmDepSys := func() *system.TSystem {
		return sys(2,
			system.Constraint{Coef: []int64{2, -1}, C: 2},
			system.Constraint{Coef: []int64{-2, 1}, C: 0},
			system.Constraint{Coef: []int64{1, 0}, C: 5},
			system.Constraint{Coef: []int64{-1, 0}, C: 0},
			system.Constraint{Coef: []int64{0, 1}, C: 10},
			system.Constraint{Coef: []int64{0, -1}, C: 0})
	}
	// fmDedupSys carries an exact duplicate and a dominated copy of its
	// coupling row, so the steady state also covers the dedup path.
	fmDedupSys := func() *system.TSystem {
		return sys(2,
			system.Constraint{Coef: []int64{2, -1}, C: 2},
			system.Constraint{Coef: []int64{2, -1}, C: 2},
			system.Constraint{Coef: []int64{2, -1}, C: 7},
			system.Constraint{Coef: []int64{-2, 1}, C: 0},
			system.Constraint{Coef: []int64{1, 0}, C: 5},
			system.Constraint{Coef: []int64{-1, 0}, C: 0},
			system.Constraint{Coef: []int64{0, 1}, C: 10},
			system.Constraint{Coef: []int64{0, -1}, C: 0})
	}
	// fmIndepSys is refuted only after eliminating t1: 2t1 - 3t2 ≤ -1 and
	// -2t1 + t2 ≤ 0 combine to -2t2 ≤ -1 (t2 ≥ 1/2 → t2 ≥ 1), against
	// t2 ≤ 0.
	fmIndepSys := func() *system.TSystem {
		return sys(2,
			system.Constraint{Coef: []int64{2, -3}, C: -1},
			system.Constraint{Coef: []int64{-2, 1}, C: 0},
			system.Constraint{Coef: []int64{0, 1}, C: 0},
			system.Constraint{Coef: []int64{0, -1}, C: 3})
	}
	cases := []struct {
		name string
		ts   *system.TSystem
		out  Outcome
	}{
		{"dependent", fmDepSys(), Dependent},
		{"dedup", fmDedupSys(), Dependent},
		{"independent", fmIndepSys(), Independent},
	}
	p := DefaultConfig().NewPipeline()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if r := p.Run(c.ts); r.Kind != KindFourierMotzkin || r.Outcome != c.out {
				t.Fatalf("premise: decided %v by %v, want %v by FM", r.Outcome, r.Kind, c.out)
			}
			for i := 0; i < 3; i++ {
				p.Run(c.ts)
			}
			if n := testing.AllocsPerRun(100, func() { p.Run(c.ts) }); n != 0 {
				t.Errorf("steady-state FM solve allocated %.1f times per problem", n)
			}
		})
	}
}

// TestFMDedupMetrics pins the redundancy-elimination counters: identical
// rows are dropped (FMDeduped), identical rows with a looser constant
// tighten the survivor in place (FMTightened).
func TestFMDedupMetrics(t *testing.T) {
	p := DefaultConfig().NewPipeline()
	before := p.FMMetrics()
	p.Run(sys(2,
		system.Constraint{Coef: []int64{2, -1}, C: 0},
		system.Constraint{Coef: []int64{2, -1}, C: 0},
		system.Constraint{Coef: []int64{-2, 1}, C: 5},
		system.Constraint{Coef: []int64{-2, 1}, C: -1}))
	after := p.FMMetrics()
	if after.Deduped <= before.Deduped {
		t.Errorf("duplicate row not counted: %+v -> %+v", before, after)
	}
	if after.Tightened <= before.Tightened {
		t.Errorf("dominated row not counted as tightened: %+v -> %+v", before, after)
	}
}

// TestRunTracedReusesScratch pins the opt-in trace to the scratch buffer:
// tracing must not reintroduce a per-problem allocation.
func TestRunTracedReusesScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	p := DefaultConfig().NewPipeline()
	ts := residueSys()
	for i := 0; i < 3; i++ {
		p.RunTraced(ts)
	}
	if n := testing.AllocsPerRun(100, func() { p.RunTraced(ts) }); n != 0 {
		t.Errorf("traced steady-state cascade allocated %.1f times per problem", n)
	}
	_, tr := p.RunTraced(ts)
	want := []Kind{KindSVPC, KindAcyclic, KindLoopResidue}
	if len(tr.Consulted) != len(want) {
		t.Fatalf("consulted %v, want %v", tr.Consulted, want)
	}
	for i, k := range want {
		if tr.Consulted[i] != k {
			t.Fatalf("consulted %v, want %v", tr.Consulted, want)
		}
	}
}

// BenchmarkCascadeAllocs drives one pipeline over a batch covering all four
// deciding stages; the allocs/op column is the tracked regression signal.
func BenchmarkCascadeAllocs(b *testing.B) {
	systems := []*system.TSystem{svpcSys(), acyclicSys(), residueSys(), fmSys()}
	p := DefaultConfig().NewPipeline()
	for _, ts := range systems {
		p.Run(ts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ts := range systems {
			p.Run(ts)
		}
	}
}

// BenchmarkStage times each test in isolation (state preparation
// included), reproducing the §7 per-test cost ordering with allocation
// counts: SVPC < Acyclic < Loop Residue < Fourier–Motzkin.
func BenchmarkStage(b *testing.B) {
	cases := []struct {
		name  string
		ts    *system.TSystem
		apply func(*state, *Scratch) bool // reports whether the test decided
	}{
		{"SVPC", svpcSys(), func(s *state, sc *Scratch) bool {
			_, ok, w := svpc(s, sc.witness)
			sc.witness = w
			return ok
		}},
		{"Acyclic", acyclicSys(), func(s *state, sc *Scratch) bool {
			_, _, ok := acyclicApply(s, sc)
			return ok
		}},
		{"LoopResidue", residueSys(), func(s *state, sc *Scratch) bool {
			_, ok := residueApply(s, sc)
			return ok
		}},
		{"FourierMotzkin", fmSys(), func(s *state, sc *Scratch) bool {
			fourierApply(s, sc)
			return true
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sc := newScratch()
			if !c.apply(sc.prepare(c.ts), sc) {
				b.Fatalf("stage %s did not decide its representative problem", c.name)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !c.apply(sc.prepare(c.ts), sc) {
					b.Fatal("stage did not decide")
				}
			}
		})
	}
}
