package dtest

import "time"

// Budget bounds the work one problem may spend in the expensive end of the
// cascade. The cheap tests (SVPC, Acyclic, Loop Residue) are polynomial and
// never consult the budget; only the Fourier–Motzkin backup — worst-case
// exponential in its elimination/branch-and-bound phase — is metered. When a
// limit fires the stage returns a sound, conservative Maybe verdict ("assume
// dependent", Exact=false) with Result.Trip naming the limit, so a service
// under adversarial input degrades gracefully instead of stalling a worker.
//
// The zero value is unlimited (no field is checked). Count limits
// (eliminations, branch nodes, derived constraints) are deterministic:
// whether they trip depends only on the canonical problem, so tripped
// verdicts are reproducible across schedules and cacheable per budget class
// (Class). Clock limits (MaxDuration, Deadline) and cancellation are
// scheduling-dependent; verdicts they produce are sound but not
// deterministic, and are never memoized.
type Budget struct {
	// MaxFMEliminations caps the number of Fourier–Motzkin variable
	// eliminations per problem, summed over the solve and every
	// branch-and-bound subproblem. 0 means unlimited.
	MaxFMEliminations int
	// MaxBranchNodes caps the branch-and-bound nodes explored per problem.
	// 0 means unlimited (the structural depth cap still applies).
	MaxBranchNodes int
	// MaxConstraints caps the derived constraints accumulated per problem
	// across all eliminations. 0 means unlimited (the structural
	// maxFMConstraints cap still applies and yields Unknown, not Maybe).
	MaxConstraints int
	// MaxDuration is the per-problem wall-clock allowance, armed when the
	// scratch is prepared for the problem. 0 means unlimited.
	MaxDuration time.Duration
	// Deadline is an absolute wall-clock cutoff shared by every problem
	// (typically derived from a context deadline). Zero means none.
	Deadline time.Time
}

// Limited reports whether any budget dimension is set.
func (b Budget) Limited() bool {
	return b.MaxFMEliminations > 0 || b.MaxBranchNodes > 0 || b.MaxConstraints > 0 ||
		b.MaxDuration > 0 || !b.Deadline.IsZero()
}

// BudgetClass identifies the deterministic (count-limit) part of a Budget.
// A degraded Maybe verdict is a property of the problem *and* the count
// limits that tripped it, so the memo layer caches such verdicts only for
// an identical class; exact verdicts are valid under every class. Clock
// limits are excluded: whether they trip is scheduling-dependent, and
// clock-tripped verdicts are never cached at all.
type BudgetClass struct {
	FMEliminations, BranchNodes, Constraints int
}

// Class returns the budget's deterministic fingerprint.
func (b Budget) Class() BudgetClass {
	return BudgetClass{
		FMEliminations: b.MaxFMEliminations,
		BranchNodes:    b.MaxBranchNodes,
		Constraints:    b.MaxConstraints,
	}
}

// Exhaustive reports whether the class imposes no count limit (the class of
// an unbudgeted or clock-only budget).
func (c BudgetClass) Exhaustive() bool {
	return c.FMEliminations == 0 && c.BranchNodes == 0 && c.Constraints == 0
}

// TripReason records which budget limit cut an analysis short.
type TripReason int

const (
	// TripNone: the verdict was reached within budget.
	TripNone TripReason = iota
	// TripFMEliminations: Budget.MaxFMEliminations fired.
	TripFMEliminations
	// TripBranchNodes: Budget.MaxBranchNodes fired.
	TripBranchNodes
	// TripConstraints: Budget.MaxConstraints fired.
	TripConstraints
	// TripDeadline: the per-problem duration or absolute deadline passed.
	TripDeadline
	// TripCancelled: the caller's context was cancelled mid-problem.
	TripCancelled
	// TripFMConstraintCap: the structural maxFMConstraints cap on one
	// elimination round fired. Unlike the budgetary reasons above this is not
	// a Budget limit: it is a property of the problem alone, always armed,
	// and the verdict stays Unknown (not Maybe). It is recorded so the stats
	// and cost reports can attribute the degradation.
	TripFMConstraintCap

	// NumTripReasons sizes per-reason counter arrays (stats.Counters).
	NumTripReasons = int(TripFMConstraintCap) + 1
)

func (t TripReason) String() string {
	switch t {
	case TripNone:
		return "none"
	case TripFMEliminations:
		return "fm-eliminations"
	case TripBranchNodes:
		return "branch-nodes"
	case TripConstraints:
		return "constraints"
	case TripDeadline:
		return "deadline"
	case TripCancelled:
		return "cancelled"
	case TripFMConstraintCap:
		return "fm-constraint-cap"
	default:
		return "?"
	}
}

// Budgetary reports whether the reason names a Budget limit (or the clock /
// cancellation), as opposed to a structural cap of a test itself. Budgetary
// trips degrade the verdict to Maybe ("ran out of budget, re-run with
// more"); structural trips leave it Unknown ("the test cannot decide this
// problem"), matching the pre-budget behaviour of maxFMConstraints.
func (t TripReason) Budgetary() bool {
	switch t {
	case TripFMEliminations, TripBranchNodes, TripConstraints, TripDeadline, TripCancelled:
		return true
	}
	return false
}

// clockCheckStride decimates wall-clock and cancellation checks on the
// constraint-derivation fast path: reading the clock per derived constraint
// would dominate the arithmetic it meters. Eliminations and branch nodes are
// chunky enough to check every time.
const clockCheckStride = 64

// budgetState is the per-problem metering carried in the Scratch: the
// immutable limits plus the running counters, the armed deadline, and the
// first limit that fired. It is reset by Scratch.prepare and consulted only
// from the Fourier–Motzkin hot points, so problems decided by the cheap
// tests pay nothing (and the budgeted cascade path stays allocation-free —
// TestBudgetZeroAllocs).
type budgetState struct {
	limits Budget
	cancel <-chan struct{}

	deadline time.Time // per-problem cutoff, computed at reset
	hasClock bool      // deadline is armed for this problem

	elims int
	nodes int
	cons  int
	tick  uint
	trip  TripReason
}

// reset re-arms the state for a new problem. The clock is read only when a
// clock limit is actually set.
func (bs *budgetState) reset() {
	bs.elims, bs.nodes, bs.cons, bs.tick = 0, 0, 0, 0
	bs.trip = TripNone
	bs.hasClock = false
	if bs.limits.MaxDuration > 0 || !bs.limits.Deadline.IsZero() {
		bs.deadline = bs.limits.Deadline
		if bs.limits.MaxDuration > 0 {
			d := time.Now().Add(bs.limits.MaxDuration)
			if bs.deadline.IsZero() || d.Before(bs.deadline) {
				bs.deadline = d
			}
		}
		bs.hasClock = true
	}
}

func (bs *budgetState) tripped() bool { return bs.trip != TripNone }

// maybe is the degraded verdict for the recorded trip.
func (bs *budgetState) maybe() Result {
	return Result{Outcome: Maybe, Kind: KindFourierMotzkin, Trip: bs.trip}
}

// checkClock polls cancellation and the armed deadline; false means the
// problem must stop (bs.trip is set).
func (bs *budgetState) checkClock() bool {
	if bs.cancel != nil {
		select {
		case <-bs.cancel:
			bs.trip = TripCancelled
			return false
		default:
		}
	}
	if bs.hasClock && time.Now().After(bs.deadline) {
		bs.trip = TripDeadline
		return false
	}
	return true
}

// chargeElim meters one variable elimination; false means over budget.
func (bs *budgetState) chargeElim() bool {
	if bs.trip != TripNone {
		return false
	}
	bs.elims++
	if bs.limits.MaxFMEliminations > 0 && bs.elims > bs.limits.MaxFMEliminations {
		bs.trip = TripFMEliminations
		return false
	}
	if bs.cancel == nil && !bs.hasClock {
		return true
	}
	return bs.checkClock()
}

// chargeNode meters one branch-and-bound node; false means over budget.
func (bs *budgetState) chargeNode() bool {
	if bs.trip != TripNone {
		return false
	}
	bs.nodes++
	if bs.limits.MaxBranchNodes > 0 && bs.nodes > bs.limits.MaxBranchNodes {
		bs.trip = TripBranchNodes
		return false
	}
	if bs.cancel == nil && !bs.hasClock {
		return true
	}
	return bs.checkClock()
}

// chargeCons meters one derived constraint; the clock is polled every
// clockCheckStride charges. false means over budget.
func (bs *budgetState) chargeCons() bool {
	if bs.trip != TripNone {
		return false
	}
	bs.cons++
	if bs.limits.MaxConstraints > 0 && bs.cons > bs.limits.MaxConstraints {
		bs.trip = TripConstraints
		return false
	}
	if bs.cancel == nil && !bs.hasClock {
		return true
	}
	bs.tick++
	if bs.tick%clockCheckStride != 0 {
		return true
	}
	return bs.checkClock()
}
