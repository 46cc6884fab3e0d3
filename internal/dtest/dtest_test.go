package dtest

import (
	"math/rand"
	"testing"

	"exactdep/internal/system"
)

// cons builds a constraint Σ coef·t ≤ c.
func cons(c int64, coef ...int64) system.Constraint {
	return system.Constraint{Coef: coef, C: c}
}

// sys builds a TSystem over n t-variables with the given constraints.
func sys(n int, cs ...system.Constraint) *system.TSystem {
	return &system.TSystem{NumT: n, Cons: cs}
}

func TestSVPCPaperExample(t *testing.T) {
	// §3.2 worked example after GCD: 1 ≤ t1 ≤ 10, 1 ≤ t2 ≤ 10,
	// 1 ≤ t2+9 ≤ 10, 1 ≤ t1-10 ≤ 10. lb(t1)=11 > ub(t1)=10 → independent.
	ts := sys(2,
		cons(10, 1, 0), cons(-1, -1, 0), // 1 ≤ t1 ≤ 10
		cons(10, 0, 1), cons(-1, 0, -1), // 1 ≤ t2 ≤ 10
		cons(1, 0, 1), cons(8, 0, -1), // 1 ≤ t2+9 ≤ 10 → t2 ≤ 1, -t2 ≤ 8
		cons(20, 1, 0), cons(-11, -1, 0), // 1 ≤ t1-10 ≤ 10 → t1 ≤ 20, -t1 ≤ -11
	)
	r, tr := Solve(ts)
	if r.Outcome != Independent || !r.Exact || r.Kind != KindSVPC {
		t.Fatalf("got %v", r)
	}
	if tr.Decided != KindSVPC || len(tr.Consulted) != 1 {
		t.Fatalf("trace = %+v", tr)
	}
}

func TestSVPCDependentWitness(t *testing.T) {
	ts := sys(2,
		cons(10, 1, 0), cons(-1, -1, 0),
		cons(5, 0, 1), cons(0, 0, -1),
	)
	r, _ := Solve(ts)
	if r.Outcome != Dependent || !r.Exact || r.Kind != KindSVPC {
		t.Fatalf("got %v", r)
	}
	if !VerifyWitness(ts, r.Witness) {
		t.Fatalf("invalid witness %v", r.Witness)
	}
}

func TestSVPCUnboundedVariable(t *testing.T) {
	// one variable with only a lower bound, another unconstrained
	ts := sys(2, cons(-3, -1, 0))
	r, _ := Solve(ts)
	if r.Outcome != Dependent || r.Kind != KindSVPC {
		t.Fatalf("got %v", r)
	}
	if !VerifyWitness(ts, r.Witness) {
		t.Fatalf("witness %v violates t1 ≥ 3", r.Witness)
	}
}

func TestSVPCTighteningDivision(t *testing.T) {
	// 2·t1 ≤ 5 → t1 ≤ 2; -2·t1 ≤ -5 → t1 ≥ 3: integers only → independent,
	// even though reals admit t1 = 2.5.
	ts := sys(1, cons(5, 2), cons(-5, -2))
	r, _ := Solve(ts)
	if r.Outcome != Independent || r.Kind != KindSVPC {
		t.Fatalf("integer tightening missed: %v", r)
	}
}

func TestAcyclicPaperExample(t *testing.T) {
	// §3.3: constraint t1 + 2t2 - t3 ≤ 0 style systems are acyclic when no
	// variable is bounded in both directions by multi constraints.
	// Build: t1 - t2 - t3 ≤ 0 with box bounds on t2, t3 only as lowers:
	//   t2 ≥ 1, t3 ≥ 0, t1 ≥ 1 — t1 only upper-bounded by the multi.
	ts := sys(3,
		cons(0, 1, -1, -1),
		cons(-1, 0, -1, 0),
		cons(0, 0, 0, -1),
		cons(-1, -1, 0, 0),
	)
	r, tr := Solve(ts)
	if r.Outcome != Dependent || !r.Exact || r.Kind != KindAcyclic {
		t.Fatalf("got %v (trace %+v)", r, tr)
	}
	if !VerifyWitness(ts, r.Witness) {
		t.Fatalf("invalid witness %v", r.Witness)
	}
}

func TestAcyclicIndependent(t *testing.T) {
	// t1 ≤ t2 - 1, t2 ≤ 3, t1 ≥ 3: substitute t2's upper bound... this
	// system is acyclic (t2 only lower-bounded by the multi when read as
	// t2 ≥ t1+1; t1 bounded below by single). Pin t1 = 3 → t2 ≥ 4 > 3.
	ts := sys(2,
		cons(-1, 1, -1), // t1 - t2 ≤ -1
		cons(3, 0, 1),   // t2 ≤ 3
		cons(-3, -1, 0), // t1 ≥ 3
	)
	r, _ := Solve(ts)
	if r.Outcome != Independent || !r.Exact || r.Kind != KindAcyclic {
		t.Fatalf("got %v", r)
	}
}

func TestAcyclicUnboundedDrop(t *testing.T) {
	// t1 - t2 ≤ -1 with t2 ≤ 0 only: t1 has no lower bound → constraints
	// involving t1 can be discharged by pushing t1 low. Dependent.
	ts := sys(2,
		cons(-1, 1, -1),
		cons(0, 0, 1),
	)
	r, _ := Solve(ts)
	if r.Outcome != Dependent || !r.Exact || r.Kind != KindAcyclic {
		t.Fatalf("got %v", r)
	}
	if !VerifyWitness(ts, r.Witness) {
		t.Fatalf("invalid witness %v", r.Witness)
	}
}

func TestLoopResiduePaperFigure1(t *testing.T) {
	// §3.4 / Figure 1: t1 ≥ 1, t3 ≤ 4, 2t1 ≤ 2t3 - 7. The last becomes
	// t1 - t3 ≤ ⌊-7/2⌋ = -4. Cycle t1→t3→n0→t1 has value -4+4-1 = -1 < 0 →
	// independent.
	ts := sys(3,
		cons(-1, -1, 0, 0), // t1 ≥ 1
		cons(4, 0, 0, 1),   // t3 ≤ 4
		cons(-7, 2, 0, -2), // 2t1 - 2t3 ≤ -7
	)
	// note: constraint normalization divides by 2 and floors: t1-t3 ≤ -4
	// t2 exists but is unconstrained; the cycle is blind to it. To force the
	// residue test (not acyclic), bind t1 and t3 in both directions:
	ts.Cons = append(ts.Cons,
		cons(7, -2, 0, 2), // 2t3 - 2t1 ≤ 7  →  t3 - t1 ≤ 3 (cycle-maker)
	)
	r, tr := Solve(ts)
	if r.Outcome != Independent || !r.Exact || r.Kind != KindLoopResidue {
		t.Fatalf("got %v (trace %+v)", r, tr)
	}
}

func TestLoopResidueDependent(t *testing.T) {
	// t1 - t2 ≤ 2, t2 - t1 ≤ -1 (i.e. 1 ≤ t1 - t2 ≤ 2), 0 ≤ t1 ≤ 10,
	// 0 ≤ t2 ≤ 10: feasible, e.g. t1=1, t2=0.
	ts := sys(2,
		cons(2, 1, -1), cons(-1, -1, 1),
		cons(10, 1, 0), cons(0, -1, 0),
		cons(10, 0, 1), cons(0, 0, -1),
	)
	r, _ := Solve(ts)
	if r.Outcome != Dependent || !r.Exact || r.Kind != KindLoopResidue {
		t.Fatalf("got %v", r)
	}
	if !VerifyWitness(ts, r.Witness) {
		t.Fatalf("invalid witness %v", r.Witness)
	}
}

func TestLoopResidueScaledCoefficients(t *testing.T) {
	// The paper's exact extension: a·ti ≤ a·tj + c handled by dividing c
	// with a floor. 3t1 - 3t2 ≤ 2 → t1 - t2 ≤ 0; with t2 - t1 ≤ -1 the
	// system needs t1 - t2 ≥ 1 and ≤ 0 → independent.
	ts := sys(2,
		cons(2, 3, -3), cons(-1, -1, 1),
		cons(5, 1, 0), cons(0, -1, 0),
		cons(5, 0, 1), cons(0, 0, -1),
	)
	r, _ := Solve(ts)
	if r.Outcome != Independent || !r.Exact {
		t.Fatalf("got %v", r)
	}
}

func TestFourierMotzkinIndependent(t *testing.T) {
	// 2t1 + 3t2 ≤ 5, -2t1 - 3t2 ≤ -12: contradiction over the reals → FM
	// (the only applicable test: coefficients are not ± equal).
	ts := sys(2,
		cons(5, 2, 3), cons(-12, -2, -3),
		cons(100, 1, 0), cons(100, 0, 1), cons(100, -1, 0), cons(100, 0, -1),
	)
	r, tr := Solve(ts)
	if r.Outcome != Independent || !r.Exact || r.Kind != KindFourierMotzkin {
		t.Fatalf("got %v (trace %+v)", r, tr)
	}
	if len(tr.Consulted) != 4 {
		t.Fatalf("FM must be the fourth consulted test: %+v", tr)
	}
}

func TestFourierMotzkinDependentIntegralSample(t *testing.T) {
	// 2t1 + 3t2 ≤ 12, t1 + t2 ≥ 1, 0 ≤ t1,t2 ≤ 10 (mixed coefficients
	// force FM past residue).
	ts := sys(2,
		cons(12, 2, 3), cons(-1, -1, -1),
		cons(10, 1, 0), cons(0, -1, 0),
		cons(10, 0, 1), cons(0, 0, -1),
	)
	r, _ := Solve(ts)
	if r.Outcome != Dependent || !r.Exact || r.Kind != KindFourierMotzkin {
		t.Fatalf("got %v", r)
	}
	if r.Witness == nil || !VerifyWitness(ts, r.Witness) {
		t.Fatalf("invalid witness %v", r.Witness)
	}
}

func TestFourierMotzkinNoIntegerFirstVariable(t *testing.T) {
	// Real solutions exist only in a fractional sliver: 2 ≤ 2t1+2t2... use
	// one effective dimension: 1 ≤ 2u ≤ 1 with u = t1 (after making other
	// vars cancel): 2t1 ≥ 1, 2t1 ≤ 1 → t1 = 1/2: no integer, provable at
	// the first back-substitution (paper's special case). But SVPC would
	// catch single-var constraints; so couple: t1 + t2 constrained both
	// ways with a third blocking residue: 2(t1+t2) ∈ [1,1].
	ts := sys(2,
		cons(1, 2, 2),    // 2t1 + 2t2 ≤ 1
		cons(-1, -2, -2), // 2t1 + 2t2 ≥ 1
	)
	// Coefficients are equal-signed pairs so residue doesn't apply; acyclic
	// sees both directions → FM. Normalization floors: 2t1+2t2 ≤ 1 →
	// t1+t2 ≤ 0; -2t1-2t2 ≤ -1 → t1+t2 ≤ ... -t1-t2 ≤ -1 → combined
	// infeasible over integers and detected by FM elimination.
	r, _ := Solve(ts)
	if r.Outcome != Independent || !r.Exact {
		t.Fatalf("got %v", r)
	}
}

func TestFractionalGapBranchAndBound(t *testing.T) {
	// 3t1 - 3t2 = 1 over a box: no integer solution (3 ∤ 1) but reals exist.
	// Written with unequal coefficient shapes to dodge residue: use
	// 3t1 - 2t2 ≤ 1, -3t1 + 2t2 ≤ -1 (equality 3t1 - 2t2 = 1: integer
	// solutions DO exist, t1=1,t2=1). Instead force a genuine fractional
	// gap: 2t1 - 2t2 ≤ 1 and -2t1 + 2t2 ≤ -1 normalizes to t1-t2 ≤ 0 and
	// t1-t2 ≥ 1 → independent. For a case that *needs* FM with a
	// fractional interior, constrain 2t1 ∈ [1,1] and couple t2:
	ts := sys(2,
		cons(1, 2, 4),    // 2t1 + 4t2 ≤ 1
		cons(-1, -2, -4), // 2t1 + 4t2 ≥ 1: even lhs = odd rhs impossible
	)
	r, _ := Solve(ts)
	if r.Outcome != Independent || !r.Exact {
		t.Fatalf("parity-infeasible system: got %v", r)
	}
}

func TestCascadeEmptySystem(t *testing.T) {
	// No constraints at all: trivially dependent (any t works).
	r, tr := Solve(sys(2))
	if r.Outcome != Dependent || !r.Exact || tr.Decided != KindSVPC {
		t.Fatalf("got %v / %+v", r, tr)
	}
}

func TestCascadeInfeasibleFlag(t *testing.T) {
	ts := sys(1, cons(5, 1))
	ts.Infeasible = true
	r, _ := Solve(ts)
	if r.Outcome != Independent || !r.Exact {
		t.Fatalf("got %v", r)
	}
}

func TestResidueGraphRendering(t *testing.T) {
	ts := sys(2,
		cons(2, 1, -1),
		cons(10, 1, 0), cons(0, 0, -1),
	)
	s := NewState(ts)
	g, ok := BuildResidueGraph(s)
	if !ok {
		t.Fatal("difference system must build a residue graph")
	}
	if len(g.Edges) != 3 {
		t.Fatalf("edges = %d, want 3", len(g.Edges))
	}
	if g.Dot() == "" || g.String() == "" {
		t.Fatal("graph rendering empty")
	}
}

// bruteForce exhaustively searches the box [-bound, bound]^n.
func bruteForce(cs []system.Constraint, n int, bound int64) bool {
	assign := make([]int64, n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			for _, c := range cs {
				var s int64
				for j, a := range c.Coef {
					s += a * assign[j]
				}
				if s > c.C {
					return false
				}
			}
			return true
		}
		for v := -bound; v <= bound; v++ {
			assign[i] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// TestCascadeDifferential cross-checks the cascade against brute force on
// random boxed systems. Every exact verdict must agree with enumeration,
// and every witness must satisfy the system.
func TestCascadeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1991))
	const B = 4
	unknowns := 0
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(3)
		var cs []system.Constraint
		// box bounds keep brute force sound
		for i := 0; i < n; i++ {
			lo := make([]int64, n)
			hi := make([]int64, n)
			lo[i], hi[i] = -1, 1
			cs = append(cs,
				system.Constraint{Coef: hi, C: B},
				system.Constraint{Coef: lo, C: B})
		}
		// random extra constraints
		extra := rng.Intn(4)
		for k := 0; k < extra; k++ {
			coef := make([]int64, n)
			for j := range coef {
				coef[j] = int64(rng.Intn(7) - 3)
			}
			c := system.Constraint{Coef: coef, C: int64(rng.Intn(13) - 6)}
			if nc, ok, err := c.Normalize(); err != nil {
				t.Fatal(err)
			} else if ok {
				if nc.NumVarsUsed() > 0 {
					cs = append(cs, nc)
				}
			} else {
				cs = append(cs, c) // keep raw infeasible constant? skip
			}
		}
		ts := sys(n, cs...)
		r, _ := Solve(ts)
		want := bruteForce(cs, n, B)
		switch r.Outcome {
		case Dependent:
			if !r.Exact {
				t.Fatalf("iter %d: inexact Dependent should be Unknown", iter)
			}
			if !want {
				t.Fatalf("iter %d: cascade says dependent, brute force disagrees\n%v", iter, cs)
			}
			if r.Witness != nil && !VerifyWitness(ts, r.Witness) {
				t.Fatalf("iter %d: bad witness %v for\n%v", iter, r.Witness, cs)
			}
		case Independent:
			if want {
				t.Fatalf("iter %d: cascade says independent, brute force found a solution\n%v", iter, cs)
			}
		case Unknown:
			unknowns++
		}
	}
	if unknowns > 0 {
		t.Logf("unknown verdicts: %d / 2000", unknowns)
	}
}

// TestCascadeAlwaysExact mirrors the paper's §4 empirical claim on our
// random population: the cascade should essentially never return Unknown on
// small boxed systems.
func TestCascadeAlwaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	unknowns, total := 0, 3000
	for iter := 0; iter < total; iter++ {
		n := 1 + rng.Intn(4)
		var cs []system.Constraint
		for i := 0; i < n; i++ {
			lo := make([]int64, n)
			hi := make([]int64, n)
			lo[i], hi[i] = -1, 1
			cs = append(cs,
				system.Constraint{Coef: hi, C: int64(rng.Intn(20))},
				system.Constraint{Coef: lo, C: int64(rng.Intn(20))})
		}
		for k := rng.Intn(5); k > 0; k-- {
			coef := make([]int64, n)
			for j := range coef {
				coef[j] = int64(rng.Intn(9) - 4)
			}
			cs = append(cs, system.Constraint{Coef: coef, C: int64(rng.Intn(21) - 10)})
		}
		r, _ := Solve(sys(n, cs...))
		if r.Outcome == Unknown {
			unknowns++
		}
	}
	if unknowns*100 > total {
		t.Fatalf("cascade inexact on %d/%d random systems (>1%%)", unknowns, total)
	}
}
