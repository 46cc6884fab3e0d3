package dtest

import (
	"math"
	"testing"

	"exactdep/internal/system"
)

// Failure injection: the exact tests must degrade to safe Unknown verdicts
// (never wrong answers) when the checked int64 arithmetic or the structural
// caps trip.

// TestFMOverflowDegradesToUnknown: when Fourier–Motzkin's checked int64
// arithmetic overflows, the verdict is the one an Extended GCD overflow
// gets — Unknown, inexact, no budget trip — from the full cascade and from
// FM alone.
func TestFMOverflowDegradesToUnknown(t *testing.T) {
	big := int64(math.MaxInt64 / 2)
	quarter := int64(math.MaxInt64 / 4)
	b40 := int64(1) << 40
	for _, tc := range []struct {
		name string
		ts   *system.TSystem
	}{
		// The combination a·up + b·lo overflows.
		{"combine", sys(2,
			cons(1, big, big-1),
			cons(-1, -(big-3), -(big-5)),
			cons(10, 1, 0), cons(0, -1, 0),
			cons(10, 0, 1), cons(0, 0, -1),
		)},
		// Real-infeasible: big·t1 + (big-1)·t2 ≤ 1 and ≥ 3.
		{"infeasible", sys(2,
			cons(1, big, big-1),
			cons(-3, -(big-3), -(big-5)),
			cons(10, 1, 0), cons(0, -1, 0),
			cons(10, 0, 1), cons(0, 0, -1),
		)},
		// Satisfiable (t1 = t2 = 0) but large.
		{"dependent", sys(2,
			cons(0, quarter, quarter-1),
			cons(0, -quarter, -(quarter-1)),
			cons(5, 1, 0), cons(5, -1, 0),
			cons(5, 0, 1), cons(5, 0, -1),
		)},
		// 2t1 + 4t2 = 1 scaled by 2^40, unnormalized: infeasible by parity.
		{"parity", sys(2,
			cons(b40, 2*b40, 4*b40),
			cons(-b40, -2*b40, -4*b40),
		)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, cfg := range []*Config{DefaultConfig(), FMOnlyConfig()} {
				r := cfg.NewPipeline().Run(tc.ts)
				if r.Outcome != Unknown || r.Exact || r.Kind != KindFourierMotzkin || r.Trip != TripNone {
					t.Errorf("%s: got %v (exact %v, trip %v), want an inexact Unknown from Fourier-Motzkin", cfg.Kinds(), r, r.Exact, r.Trip)
				}
			}
		})
	}
}

// TestLoopResidueOverflowInapplicable: t1 - t2 ≤ -m and t2 - t1 ≤ -m with
// m = 2^62+1 is a negative cycle whose weight, -2^63-2, leaves int64. Loop
// Residue must step aside rather than relax through the wrap, and the
// cascade must not answer Dependent.
func TestLoopResidueOverflowInapplicable(t *testing.T) {
	m := int64(1)<<62 + 1
	ts := sys(2, cons(-m, 1, -1), cons(-m, -1, 1))
	if r, ok := LoopResidue(NewState(ts)); ok {
		t.Fatalf("Loop Residue decided %v on an overflowing cycle", r)
	}
	for _, cfg := range []*Config{DefaultConfig(), FMOnlyConfig()} {
		if r := cfg.NewPipeline().Run(ts); !(r.Outcome == Independent && r.Exact) && r.Outcome != Unknown {
			t.Errorf("%s: got %v, want exact Independent or Unknown", cfg.Kinds(), r)
		}
	}
}

// TestBoundPast2To63IsUnknown: -t1 ≤ MinInt64 says t1 ≥ 2^63, which int64
// cannot hold (Go evaluates ⌈MinInt64 / -1⌉ to MinInt64). Classification
// must not record the wrapped bound; the system is infeasible, but without
// that bound the cascade can only say Unknown.
func TestBoundPast2To63IsUnknown(t *testing.T) {
	ts := sys(1, cons(math.MinInt64, -1), cons(0, 1))
	for _, cfg := range []*Config{DefaultConfig(), FMOnlyConfig()} {
		r := cfg.NewPipeline().Run(ts)
		if r.Outcome != Unknown || r.Exact {
			t.Errorf("%s: got %v, want an inexact Unknown", cfg.Kinds(), r)
		}
	}
	// A conflict among the bounds that were recorded still refutes it.
	ts = sys(1, cons(math.MinInt64, -1), cons(0, 1), cons(-1, -1))
	if r, _ := Solve(ts); r.Outcome != Independent || !r.Exact {
		t.Errorf("recorded conflict: got %v, want exact Independent", r)
	}
}

// TestAcyclicOverflowHandsOnUnsimplified: fixing t2 at its upper bound -5
// turns -t1 - t2 ≤ MinInt64+5 into -t1 ≤ MinInt64, a bound past int64. The
// Acyclic test must hand the unsimplified system on, and FM refutes it
// (t1 + t2 ≥ 2^63-5 against t1 ≤ t2 ≤ -5).
func TestAcyclicOverflowHandsOnUnsimplified(t *testing.T) {
	ts := sys(2,
		cons(math.MinInt64+5, -1, -1),
		cons(0, 1, -1),
		cons(-5, 0, 1),
	)
	r, tr := Solve(ts)
	if r.Outcome != Independent || !r.Exact || tr.Decided != KindFourierMotzkin {
		t.Fatalf("got %v decided by %v, want exact Independent from Fourier-Motzkin", r, tr.Decided)
	}
}

func TestAcyclicSubstituteOverflow(t *testing.T) {
	// Substituting a huge bound into a multi-variable constraint overflows;
	// the Acyclic test must hand the original system to the next stage.
	big := int64(math.MaxInt64 / 2)
	ts := sys(2,
		cons(0, 1, 1),         // t1 + t2 ≤ 0: t1 upper-bounded via t2
		cons(-big, -1, 0),     // t1 ≥ big (fix candidate)
		cons(big, 0, 1),       // t2 ≤ big
		cons(-(big-1), 0, -1), // t2 ≥ big-1
	)
	s := NewState(ts)
	r := SolveState(s)
	// whatever the route, no panic and a classified outcome:
	if r.Outcome != Independent && r.Outcome != Dependent && r.Outcome != Unknown {
		t.Fatalf("unclassified outcome: %v", r)
	}
}

func TestBranchDepthLimit(t *testing.T) {
	// With explicit branch-and-bound disabled, a fractional sliver is
	// Unknown (paper-faithful mode); re-enabled, it resolves exactly.
	defer func() { EnableExplicitBranchAndBound = true }()
	ts := sys(2,
		cons(1, 2, -3), cons(-1, -2, 3), // 2t1 - 3t2 = 1
		cons(0, 0, 1), cons(0, 0, -1), // t2 = 0 → t1 = 1/2
	)
	EnableExplicitBranchAndBound = false
	r, _ := Solve(ts.Clone())
	if r.Outcome != Unknown {
		t.Fatalf("paper-faithful mode: want Unknown, got %v", r)
	}
	EnableExplicitBranchAndBound = true
	r, _ = Solve(ts.Clone())
	if r.Outcome != Independent || !r.Exact {
		t.Fatalf("with branch-and-bound: want exact Independent, got %v", r)
	}
}

func TestConstraintBlowupCap(t *testing.T) {
	// A dense system engineered to multiply constraints during elimination.
	// The cap must stop it with Unknown rather than exhausting memory.
	const n = 12
	var cs []system.Constraint
	// many constraints coupling every pair with distinct coefficient shapes
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c1 := make([]int64, n)
			c1[i], c1[j] = 2, 3
			cs = append(cs, system.Constraint{Coef: c1, C: int64(i + j)})
			c2 := make([]int64, n)
			c2[i], c2[j] = -3, -2
			cs = append(cs, system.Constraint{Coef: c2, C: int64(i - j)})
		}
	}
	r := FourierMotzkin(NewState(sys(n, cs...)))
	if r.Outcome != Independent && r.Outcome != Dependent && r.Outcome != Unknown {
		t.Fatalf("unclassified outcome: %v", r)
	}
}

func TestWitnessVerification(t *testing.T) {
	// Every dependent-exact verdict across a sweep of constructed systems
	// must carry a valid witness.
	systems := []*system.TSystem{
		sys(1, cons(5, 1), cons(0, -1)),
		sys(2, cons(3, 1, -1), cons(3, -1, 1), cons(10, 1, 0), cons(0, -1, 0), cons(10, 0, 1), cons(0, 0, -1)),
		sys(3, cons(12, 2, 3, 1), cons(-1, -1, -1, -1), cons(9, 1, 0, 0), cons(0, -1, 0, 0),
			cons(9, 0, 1, 0), cons(0, 0, -1, 0), cons(9, 0, 0, 1), cons(0, 0, 0, -1)),
	}
	for i, ts := range systems {
		r, _ := Solve(ts.Clone())
		if r.Outcome != Dependent {
			continue
		}
		if r.Witness == nil {
			t.Fatalf("system %d: dependent without witness (kind %v)", i, r.Kind)
		}
		if !VerifyWitness(ts, r.Witness) {
			t.Fatalf("system %d: invalid witness %v", i, r.Witness)
		}
	}
}

// TestWitnessMidpointPastInt64: the bounds of t1, -t2 ≤ t1 ≤ t2 with t2 near
// MaxInt64, are more than MaxInt64 apart, so the middle of the range must
// be taken without forming the width in int64. Both the bounds witness
// (full cascade, after Acyclic fixes t2) and FM's sample must be valid.
func TestWitnessMidpointPastInt64(t *testing.T) {
	ts := sys(2,
		cons(0, 1, -1), cons(0, -1, -1),
		cons(-(1<<62), 0, -1), cons(math.MaxInt64-1, 0, 1),
	)
	for _, cfg := range []*Config{DefaultConfig(), FMOnlyConfig()} {
		r := cfg.NewPipeline().Run(ts)
		if r.Outcome != Dependent || !r.Exact || !VerifyWitness(ts, r.Witness) {
			t.Errorf("%s: got %v with witness %v, want exact Dependent with a valid witness", cfg.Kinds(), r, r.Witness)
		}
	}
}

// TestVerifyWitnessExact: the check evaluates each row exactly. A sum that
// wraps to 0 must not pass an invalid witness, and a term past int64 must
// not fail a valid one.
func TestVerifyWitnessExact(t *testing.T) {
	ts := sys(2, cons(0, 1, 2), cons(-(1<<62), 0, -1), cons(1<<62+10, 0, 1))
	if VerifyWitness(ts, []int64{math.MaxInt64 - 9, 1<<62 + 5}) {
		t.Error("accepted t1 + 2t2 = 2^64 for t1 + 2t2 ≤ 0")
	}
	ts = sys(2, cons(0, 7, 1))
	if !VerifyWitness(ts, []int64{-(1 << 62), 0}) {
		t.Error("rejected 7·(-2^62) ≤ 0")
	}
}

// TestJournalReplayedIntoLaterWitness: the Acyclic test eliminates one
// variable by dropping its constraints, then meets a cycle and hands the
// rest of the system on. The deciding test's witness leaves that variable
// out, so the cascade must give it a value by replaying Acyclic's journal.
func TestJournalReplayedIntoLaterWitness(t *testing.T) {
	for _, tc := range []struct {
		name string
		ts   *system.TSystem
		kind Kind
	}{
		// t3 only bounded above by t2 + t3 ≤ -5; t1 + t2 = 0 is a cycle.
		{"fourier-motzkin", sys(3, cons(0, -5, -5, 0), cons(-5, 0, 1, 1), cons(0, 1, 1, 0)), KindFourierMotzkin},
		// t1 only bounded above by t1 + t2 ≤ -3; t2 = t3 is a cycle.
		{"loop-residue", sys(3, cons(-3, 1, 1, 0), cons(0, 0, 1, -1), cons(0, 0, -1, 1), cons(-1, 0, -1, 0), cons(5, 0, 1, 0)), KindLoopResidue},
	} {
		r, tr := Solve(tc.ts)
		if r.Outcome != Dependent || !r.Exact || r.Kind != tc.kind || !VerifyWitness(tc.ts, r.Witness) {
			t.Errorf("%s: got %v with witness %v (consulted %v), want exact Dependent from %v with a valid witness",
				tc.name, r, r.Witness, tr.Consulted, tc.kind)
		}
		if len(tr.Consulted) < 2 || tr.Consulted[1] != KindAcyclic {
			t.Errorf("%s: consulted %v, want the Acyclic test handing on", tc.name, tr.Consulted)
		}
	}
}

// TestJournalReplayOverflowIsUnknown: the replay of Acyclic's eliminations
// is checked int64. An overflow while Acyclic decides hands the
// unsimplified system on (here Fourier–Motzkin's back-substitution then
// overflows too); an overflow while replaying into a later test's witness
// makes that test's verdict Unknown. Before, each came back exact
// Dependent with an invalid witness.
func TestJournalReplayOverflowIsUnknown(t *testing.T) {
	for _, tc := range []struct {
		name string
		ts   *system.TSystem
		kind Kind
	}{
		// t1 ≤ -2t2 with t2 = 2^62+5: the product leaves int64.
		{"product", sys(2, cons(0, 1, 2), cons(-(1<<62), 0, -1), cons(1<<62+10, 0, 1)), KindFourierMotzkin},
		// t1 ≥ ⌈MinInt64 / -1⌉ with t2 = 0: the quotient leaves int64.
		{"quotient", sys(2, cons(math.MinInt64, -1, 6), cons(-8, -8, -8)), KindFourierMotzkin},
		// As "product", replayed into Loop Residue's witness t2 = t3 = 2^62.
		{"later-stage", sys(3, cons(0, 1, 2, 0), cons(0, 0, 1, -1), cons(0, 0, -1, 1), cons(-(1<<62), 0, -1, 0), cons(1<<62+10, 0, 1, 0)), KindLoopResidue},
	} {
		r, _ := Solve(tc.ts)
		if r.Outcome != Unknown || r.Exact || r.Kind != tc.kind || r.Trip != TripNone {
			t.Errorf("%s: got %v with witness %v, want an inexact Unknown from %v", tc.name, r, r.Witness, tc.kind)
		}
	}
}
