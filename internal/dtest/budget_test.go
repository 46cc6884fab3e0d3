package dtest

// Adversarial tests for the resource-budget layer: every TripReason must be
// reachable, count-limited verdicts must be deterministic, generous budgets
// must not change any verdict, and installing a budget must not cost the
// cheap cascade path its zero-allocation steady state.

import (
	"testing"
	"time"

	"exactdep/internal/system"
)

// denseBlowupSys is the constraint-multiplication stress system from
// TestConstraintBlowupCap: n variables, every pair coupled twice with
// distinct coefficient shapes, so Fourier–Motzkin performs many eliminations
// and derives many constraints before any structural cap fires.
func denseBlowupSys() *system.TSystem {
	const n = 12
	var cs []system.Constraint
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
	return sys(n, cs...)
}

// sliverSys has a fractional-only sample range (t2 = 0 forces t1 = 1/2), so
// the full cascade falls through to Fourier–Motzkin and resolves it with
// branch-and-bound (see TestBranchDepthLimit).
func sliverSys() *system.TSystem {
	return sys(2,
		cons(1, 2, -3), cons(-1, -2, 3), // 2t1 - 3t2 = 1
		cons(0, 0, 1), cons(0, 0, -1), // t2 = 0
	)
}

func TestBudgetZeroValueUnlimited(t *testing.T) {
	var b Budget
	if b.Limited() {
		t.Fatal("zero Budget must be unlimited")
	}
	if !b.Class().Exhaustive() {
		t.Fatal("zero Budget's class must be exhaustive")
	}
	p := DefaultConfig().NewPipeline()
	p.SetBudget(b)
	if r := p.Run(sliverSys()); r.Outcome != Independent || !r.Exact || r.Trip != TripNone {
		t.Fatalf("unlimited budget changed the verdict: %v", r)
	}
}

func TestBudgetClass(t *testing.T) {
	b := Budget{
		MaxFMEliminations: 3, MaxBranchNodes: 7, MaxConstraints: 11,
		MaxDuration: time.Second, Deadline: time.Now().Add(time.Hour),
	}
	if !b.Limited() {
		t.Fatal("want Limited")
	}
	c := b.Class()
	if c != (BudgetClass{FMEliminations: 3, BranchNodes: 7, Constraints: 11}) {
		t.Fatalf("class = %+v", c)
	}
	if c.Exhaustive() {
		t.Fatal("count-limited class must not be exhaustive")
	}
	// Clock limits alone leave the class exhaustive: they never produce
	// cacheable verdicts, so they must not fragment the cache keyspace.
	clockOnly := Budget{MaxDuration: time.Millisecond}
	if !clockOnly.Limited() || !clockOnly.Class().Exhaustive() {
		t.Fatalf("clock-only budget: Limited=%v class=%+v", clockOnly.Limited(), clockOnly.Class())
	}
}

// TestBudgetStateCharges unit-tests the metering: each charge kind trips at
// its own limit with its own reason, and the first trip sticks.
func TestBudgetStateCharges(t *testing.T) {
	bs := budgetState{limits: Budget{MaxFMEliminations: 2}}
	bs.reset()
	if !bs.chargeElim() || !bs.chargeElim() {
		t.Fatal("charges within limit must succeed")
	}
	if bs.chargeElim() {
		t.Fatal("third elimination must trip")
	}
	if bs.trip != TripFMEliminations {
		t.Fatalf("trip = %v", bs.trip)
	}
	// The first trip is sticky: other charge kinds now fail without
	// overwriting the recorded reason.
	if bs.chargeNode() || bs.chargeCons() {
		t.Fatal("charges after a trip must fail")
	}
	if bs.trip != TripFMEliminations {
		t.Fatalf("trip overwritten to %v", bs.trip)
	}
	if m := bs.maybe(); m.Outcome != Maybe || m.Kind != KindFourierMotzkin || m.Trip != TripFMEliminations || m.Exact || m.Witness != nil {
		t.Fatalf("maybe() = %v", m)
	}

	bs = budgetState{limits: Budget{MaxBranchNodes: 1}}
	bs.reset()
	if !bs.chargeNode() {
		t.Fatal("first node within limit")
	}
	if bs.chargeNode() || bs.trip != TripBranchNodes {
		t.Fatalf("second node: trip = %v", bs.trip)
	}

	bs = budgetState{limits: Budget{MaxConstraints: 1}}
	bs.reset()
	if !bs.chargeCons() {
		t.Fatal("first constraint within limit")
	}
	if bs.chargeCons() || bs.trip != TripConstraints {
		t.Fatalf("second constraint: trip = %v", bs.trip)
	}

	// reset clears counters and the trip.
	bs.reset()
	if bs.tripped() || !bs.chargeCons() {
		t.Fatal("reset must re-arm the budget")
	}
}

func TestBudgetTripFMEliminations(t *testing.T) {
	p := FMOnlyConfig().NewPipeline()
	p.SetBudget(Budget{MaxFMEliminations: 1})
	r := p.Run(denseBlowupSys())
	if r.Outcome != Maybe || r.Exact || r.Trip != TripFMEliminations {
		t.Fatalf("got %v", r)
	}
}

func TestBudgetTripConstraints(t *testing.T) {
	p := FMOnlyConfig().NewPipeline()
	p.SetBudget(Budget{MaxConstraints: 4})
	r := p.Run(denseBlowupSys())
	if r.Outcome != Maybe || r.Exact || r.Trip != TripConstraints {
		t.Fatalf("got %v", r)
	}
}

// TestBudgetTripBranchNodes drives fmSolve directly with a budget state that
// has one branch node already spent, so the sliver system's (single) branch
// is the one that trips.
func TestBudgetTripBranchNodes(t *testing.T) {
	sc := newScratch()
	cs := NewState(sliverSys()).allConstraintsInto(sc)
	bs := &budgetState{limits: Budget{MaxBranchNodes: 1}}
	bs.reset()
	bs.nodes = 1
	r := fmSolve(cs, 2, 0, bs, &sc.fm, &sc.sys)
	if r.Outcome != Maybe || r.Trip != TripBranchNodes {
		t.Fatalf("got %v", r)
	}
}

func TestBudgetDeadlineTrip(t *testing.T) {
	p := DefaultConfig().NewPipeline()
	p.SetBudget(Budget{Deadline: time.Now().Add(-time.Hour)})
	r := p.Run(sliverSys())
	if r.Outcome != Maybe || r.Exact || r.Trip != TripDeadline {
		t.Fatalf("got %v", r)
	}
	// Clearing the budget re-arms the scratch: the same pipeline must solve
	// the same problem exactly again.
	p.SetBudget(Budget{})
	if r := p.Run(sliverSys()); r.Outcome != Independent || !r.Exact {
		t.Fatalf("after clearing budget: %v", r)
	}
}

func TestBudgetCancelTrip(t *testing.T) {
	p := DefaultConfig().NewPipeline()
	done := make(chan struct{})
	close(done)
	p.SetCancel(done)
	r := p.Run(sliverSys())
	if r.Outcome != Maybe || r.Exact || r.Trip != TripCancelled {
		t.Fatalf("got %v", r)
	}
	p.SetCancel(nil)
	if r := p.Run(sliverSys()); r.Outcome != Independent || !r.Exact {
		t.Fatalf("after clearing cancel: %v", r)
	}
}

// TestBudgetCheapTestsUnmetered pins the design point that only the
// Fourier–Motzkin stage consults the budget: a problem decided by a cheap
// test is immune even to an already-expired deadline.
func TestBudgetCheapTestsUnmetered(t *testing.T) {
	p := DefaultConfig().NewPipeline()
	p.SetBudget(Budget{Deadline: time.Now().Add(-time.Hour), MaxFMEliminations: 1, MaxConstraints: 1})
	for _, ts := range []*system.TSystem{svpcSys(), acyclicSys(), residueSys(), residueDepSys()} {
		r := p.Run(ts)
		if !r.Exact || r.Trip != TripNone {
			t.Fatalf("cheap-test problem degraded under budget: %v", r)
		}
	}
}

// TestBudgetCountTripsDeterministic: count-limited verdicts depend only on
// the problem and the limits, never on scheduling — the property that makes
// them safe to memoize per budget class.
func TestBudgetCountTripsDeterministic(t *testing.T) {
	systems := []*system.TSystem{denseBlowupSys(), sliverSys(), fmSys()}
	budgets := []Budget{
		{MaxFMEliminations: 1},
		{MaxConstraints: 4},
		{MaxFMEliminations: 3, MaxConstraints: 50},
	}
	for bi, b := range budgets {
		for si, ts := range systems {
			var first Result
			for trial := 0; trial < 4; trial++ {
				p := FMOnlyConfig().NewPipeline() // fresh pipeline per trial
				p.SetBudget(b)
				r := p.Run(ts)
				r.Witness = append([]int64(nil), r.Witness...)
				if trial == 0 {
					first = r
					continue
				}
				if r.Outcome != first.Outcome || r.Exact != first.Exact || r.Trip != first.Trip {
					t.Fatalf("budget %d system %d: trial %d got %v, want %v", bi, si, trial, r, first)
				}
			}
		}
	}
}

// TestBudgetGenerousMatchesUnbudgeted: limits far above any real spend must
// leave every verdict byte-identical to the unbudgeted run.
func TestBudgetGenerousMatchesUnbudgeted(t *testing.T) {
	systems := []*system.TSystem{
		svpcSys(), acyclicSys(), residueSys(), residueDepSys(),
		fmSys(), sliverSys(), denseBlowupSys(),
	}
	base := DefaultConfig().NewPipeline()
	generous := DefaultConfig().NewPipeline()
	generous.SetBudget(Budget{MaxFMEliminations: 1 << 30, MaxBranchNodes: 1 << 30, MaxConstraints: 1 << 30})
	for i, ts := range systems {
		want := base.Run(ts)
		wantW := append([]int64(nil), want.Witness...)
		got := generous.Run(ts)
		if got.Outcome != want.Outcome || got.Exact != want.Exact || got.Kind != want.Kind || got.Trip != TripNone {
			t.Fatalf("system %d: budgeted %v vs unbudgeted %v", i, got, want)
		}
		if len(got.Witness) != len(wantW) {
			t.Fatalf("system %d: witness diverged", i)
		}
		for j := range wantW {
			if got.Witness[j] != wantW[j] {
				t.Fatalf("system %d: witness diverged at %d", i, j)
			}
		}
	}
}

// TestBudgetZeroAllocs enforces the acceptance criterion that metering adds
// no allocations: with a fully armed budget (counts, duration, cancel
// channel), a problem decided by a cheap test still allocates nothing at
// steady state, and a budget *trip* on the expensive path allocates no more
// than the unbudgeted Fourier–Motzkin entry itself.
func TestBudgetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector instrumentation")
	}
	p := DefaultConfig().NewPipeline()
	p.SetBudget(Budget{
		MaxFMEliminations: 1 << 20, MaxBranchNodes: 1 << 20, MaxConstraints: 1 << 20,
		MaxDuration: time.Hour,
	})
	p.SetCancel(make(chan struct{}))
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
		t.Errorf("budgeted steady-state cascade allocated %.1f times per 4-problem batch", n)
	}

	// A tripped run still pays Fourier–Motzkin's own entry workspace (the
	// stage is documented to allocate), but the metering itself must add
	// nothing: cutting the problem short cannot cost more than solving it.
	ts := sliverSys()
	full := DefaultConfig().NewPipeline()
	for i := 0; i < 3; i++ {
		full.Run(ts)
	}
	baseline := testing.AllocsPerRun(100, func() { full.Run(ts) })

	trip := DefaultConfig().NewPipeline()
	trip.SetBudget(Budget{MaxFMEliminations: 1})
	for i := 0; i < 3; i++ {
		if r := trip.Run(ts); r.Outcome != Maybe {
			t.Fatalf("warmup run not degraded: %v", r)
		}
	}
	n = testing.AllocsPerRun(100, func() { trip.Run(ts) })
	if n > baseline {
		t.Errorf("tripped run allocated %.1f times per problem, unbudgeted run %.1f", n, baseline)
	}
}
