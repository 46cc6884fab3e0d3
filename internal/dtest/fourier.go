package dtest

import (
	"exactdep/internal/linalg"
	"exactdep/internal/system"
)

// FM tuning knobs. The paper reports that explicit branch-and-bound was
// never required on the PERFECT Club; the limits exist to bound worst-case
// behaviour on adversarial inputs, where exceeding them yields a safe
// (inexact) "assume dependent".
const (
	maxFMConstraints = 20000
	maxBranchDepth   = 12
)

// EnableExplicitBranchAndBound controls whether Fourier–Motzkin splits on
// fractional sample ranges. The paper's implementation never branched
// explicitly — its four fractional-distance cases were instead resolved by
// the *implicit* branch-and-bound of direction-vector refinement (§6).
// Disabling this reproduces that behaviour: FM returns Unknown on a
// fractional gap and the direction machinery finishes the proof. Only
// tests toggle it; it is not safe to flip concurrently with running
// tests.
var EnableExplicitBranchAndBound = true

// FourierMotzkin runs the backup test (paper §3.5): rational Fourier–Motzkin
// elimination, which is exact for independence; a mid-of-range integer
// back-substitution heuristic, which is exact for dependence when it finds
// an integral sample; the paper's first-variable special case (an empty
// integer range before any choice has been made proves independence); and
// branch-and-bound on the first fractional range otherwise.
// This convenience wrapper allocates a private scratch; the pipeline calls
// fourierApply on its own.
func FourierMotzkin(s *state) Result {
	return fourierApply(s, newScratch())
}

// fourierApply is FourierMotzkin drawing every buffer — the flat constraint
// list, the derived coefficient rows, and the solver's round/bound/witness
// workspace — from sc, so the elimination allocates nothing once the scratch
// is warm (TestFMSolveZeroAllocs). Only the rare branch-and-bound splits
// still allocate. The scratch's budget meters the work; charges accumulate
// across every branch-and-bound subproblem, so the budget bounds the
// problem's *total* spend. All arithmetic is checked int64: an overflow,
// here or in classification, is an inexact Unknown, the verdict of an
// Extended GCD overflow.
func fourierApply(s *state, sc *Scratch) Result {
	if s.infeasible || s.firstConflict() >= 0 {
		// A constant constraint already refuted the system during
		// classification (state drops it from the constraint list, so the
		// verdict must be taken from the flag).
		return independent(KindFourierMotzkin)
	}
	if s.overflow {
		return unknown(KindFourierMotzkin)
	}
	return fmSolve(s.allConstraintsInto(sc), s.n, 0, &sc.bud, &sc.fm, &sc.sys)
}

// unknownCap is the verdict for the structural maxFMConstraints cap: still
// Unknown ("the test cannot decide this"), but attributed through the trip
// machinery so stats and cost reports can count it.
func unknownCap() Result {
	return Result{Outcome: Unknown, Kind: KindFourierMotzkin, Trip: TripFMConstraintCap}
}

// fmEliminated records, per eliminated variable, where its lower and upper
// constraints sit in the scratch's bound store: [loStart,loEnd) are the
// lowers (coefficient of v negative), [loEnd,upEnd) the uppers. Offsets
// rather than subslices, so appending later rounds cannot invalidate them.
type fmEliminated struct {
	v                     int
	loStart, loEnd, upEnd int
}

// fmScratch is the Fourier–Motzkin solver's reusable workspace, owned by
// the cascade Scratch: the double-buffered working constraint list, the
// per-variable bound store for back-substitution, the remaining and val
// vectors, and the duplicate-detection hash set. All of it is reset by each
// fmSolve entry (including branch-and-bound subcalls, which run strictly
// after their parent stops touching the workspace), so one fmScratch serves
// the whole recursion. The dedup counters are cumulative across problems;
// Pipeline.FMMetrics exposes them.
type fmScratch struct {
	work  []system.Constraint // working list buffer A
	next  []system.Constraint // working list buffer B
	bound []system.Constraint // lowers/uppers of eliminated vars, offset-indexed
	order []fmEliminated

	remaining []bool
	val       []int64 // witness under construction (aliased by Result.Witness)

	set consSet

	// Cumulative redundancy-elimination counters (never reset; read as
	// deltas by the stats layer). deduped counts constraints dropped because
	// an identical row with an equal-or-tighter constant was already
	// present; tightened counts duplicates that instead strengthened the
	// retained entry's constant.
	deduped   int
	tightened int
}

// dedupAdd appends c to list unless an entry with the identical coefficient
// row already subsumes it. Two constraints with equal rows denote nested
// half-spaces: the smaller constant dominates, so the weaker one is dropped
// (deduped) or the retained entry's constant is tightened in place. Exact:
// the feasible region is unchanged. Reports whether c was absorbed.
func (fs *fmScratch) dedupAdd(list []system.Constraint, c system.Constraint) ([]system.Constraint, bool) {
	fs.set.maybeGrow(list)
	h := hashRow(c.Coef)
	mask := uint64(len(fs.set.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		slot := fs.set.slots[i]
		if slot == 0 {
			fs.set.slots[i] = int32(len(list) + 1)
			fs.set.count++
			return append(list, c), false
		}
		j := int(slot) - 1
		if rowsEqual(list[j].Coef, c.Coef) {
			if c.C < list[j].C {
				list[j].C = c.C
				fs.tightened++
			} else {
				fs.deduped++
			}
			return list, true
		}
	}
}

// consSet is an open-addressed hash set of constraint-list indexes keyed by
// coefficient row, used for one working list at a time. Slots hold index+1
// (0 = empty). reset clears it for a new list; maybeGrow rehashes from the
// list when the load factor passes 1/2.
type consSet struct {
	slots []int32
	count int
}

func (cs *consSet) reset(capHint int) {
	n := 16
	for n < 2*capHint {
		n <<= 1
	}
	if cap(cs.slots) < n {
		cs.slots = make([]int32, n)
	} else {
		cs.slots = cs.slots[:n]
		for i := range cs.slots {
			cs.slots[i] = 0
		}
	}
	cs.count = 0
}

func (cs *consSet) maybeGrow(list []system.Constraint) {
	if 2*(cs.count+1) <= len(cs.slots) {
		return
	}
	n := 2 * len(cs.slots)
	if cap(cs.slots) < n {
		cs.slots = make([]int32, n)
	} else {
		cs.slots = cs.slots[:n]
		for i := range cs.slots {
			cs.slots[i] = 0
		}
	}
	cs.count = 0
	mask := uint64(n - 1)
	for j := range list {
		h := hashRow(list[j].Coef)
		for i := h & mask; ; i = (i + 1) & mask {
			if cs.slots[i] == 0 {
				cs.slots[i] = int32(j + 1)
				cs.count++
				break
			}
		}
	}
}

// hashRow hashes a coefficient row (the constant is excluded: dominance
// compares constants of equal rows).
func hashRow(coef []int64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range coef {
		h = (h ^ uint64(v)) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func rowsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// fmSolve eliminates all variables, then back-substitutes a mid-range
// integer sample. Rows derived by combination come from the arena; every
// list lives in fs. Redundant derived constraints (identical rows) are
// dropped or tightened as they appear, which is what keeps deep nests under
// the maxFMConstraints cap.
func fmSolve(cons []system.Constraint, n, depth int, bs *budgetState, fs *fmScratch, arena *system.Scratch) Result {
	if bs.tripped() {
		return bs.maybe()
	}
	fs.bound = fs.bound[:0]
	fs.order = fs.order[:0]
	fs.remaining = resizeBoolsTrue(fs.remaining, n)
	numRemaining := n

	// Deduplicate the incoming list once; the per-round dedup below keeps
	// every later working list duplicate-free. Entries are struct copies, so
	// tightening never writes through to the caller's rows.
	fs.set.reset(2 * len(cons))
	work := fs.work[:0]
	for _, c := range cons {
		work, _ = fs.dedupAdd(work, c)
	}
	fs.work = work
	restIsNext := true // which buffer the next round's list draws from

	for numRemaining > 0 {
		v := pickFMVar(work, fs.remaining, n)
		if v < 0 {
			break // no remaining variable occurs in any constraint
		}
		if !bs.chargeElim() {
			return bs.maybe()
		}
		// Partition work: lowers and uppers move to the bound store (they
		// are consumed by this elimination and later by back-substitution),
		// everything else seeds the next round's list.
		loStart := len(fs.bound)
		for _, c := range work {
			if c.Coef[v] < 0 {
				fs.bound = append(fs.bound, c)
			}
		}
		loEnd := len(fs.bound)
		for _, c := range work {
			if c.Coef[v] > 0 {
				fs.bound = append(fs.bound, c)
			}
		}
		upEnd := len(fs.bound)
		var rest []system.Constraint
		if restIsNext {
			rest = fs.next[:0]
		} else {
			rest = fs.work[:0]
		}
		fs.set.reset(2 * len(work))
		for _, c := range work {
			if c.Coef[v] == 0 {
				rest, _ = fs.dedupAdd(rest, c)
			}
		}
		// combine every (lower, upper) pair, cancelling v
		lowers := fs.bound[loStart:loEnd]
		uppers := fs.bound[loEnd:upEnd]
		for li := range lowers {
			for ui := range uppers {
				m := arena.Mark()
				nc, ok, feasible, err := fmCombine(lowers[li], uppers[ui], v, arena)
				if err != nil {
					return unknown(KindFourierMotzkin)
				}
				if !feasible {
					return independent(KindFourierMotzkin)
				}
				if !ok {
					arena.Release(m) // vacuous: reclaim the row
					continue
				}
				if !bs.chargeCons() {
					return bs.maybe()
				}
				var absorbed bool
				rest, absorbed = fs.dedupAdd(rest, nc)
				if absorbed {
					arena.Release(m) // subsumed: reclaim the row
					continue
				}
				if len(rest) > maxFMConstraints {
					return unknownCap()
				}
			}
		}
		fs.order = append(fs.order, fmEliminated{v: v, loStart: loStart, loEnd: loEnd, upEnd: upEnd})
		if restIsNext {
			fs.next = rest
		} else {
			fs.work = rest
		}
		work = rest
		restIsNext = !restIsNext
		fs.remaining[v] = false
		numRemaining--
	}
	// Any leftover constraints involve no remaining variables... they were
	// constant and already filtered by fmCombine/Normalize; check residuals.
	for _, c := range work {
		if c.NumVarsUsed() == 0 && c.C < 0 {
			return independent(KindFourierMotzkin)
		}
	}

	// A real solution exists. Back-substitute in reverse elimination order,
	// choosing the middle integer of each allowed range. val is scratch-
	// backed: a Dependent result's Witness aliases it and stays valid until
	// the pipeline's next run, like every other scratch-backed buffer.
	fs.val = resizeInt64sZero(fs.val, n)
	for k := len(fs.order) - 1; k >= 0; k-- {
		e := fs.order[k]
		pick, bracketLo, bracketHi, ok, err := fmRange(
			fs.bound[e.loStart:e.loEnd], fs.bound[e.loEnd:e.upEnd], e.v, fs.val)
		if err != nil {
			return unknown(KindFourierMotzkin)
		}
		if !ok {
			// Empty rational range cannot happen (elimination proved real
			// feasibility), so ok=false means no *integer* in the range.
			if k == len(fs.order)-1 {
				// Paper's special case: no other variable has been chosen
				// yet, so the empty integer range is unconditional.
				return independent(KindFourierMotzkin)
			}
			return fmBranch(cons, n, depth, e.v, bracketLo, bracketHi, bs, fs, arena)
		}
		fs.val[e.v] = pick
	}
	return dependent(KindFourierMotzkin, fs.val)
}

// pickFMVar chooses the next variable to eliminate: the one minimizing the
// product of its lower and upper constraint counts (the standard heuristic
// that minimizes fill-in).
func pickFMVar(cons []system.Constraint, remaining []bool, n int) int {
	best, bestCost := -1, 0
	for v := 0; v < n; v++ {
		if !remaining[v] {
			continue
		}
		lo, up := 0, 0
		for _, c := range cons {
			switch {
			case c.Coef[v] > 0:
				up++
			case c.Coef[v] < 0:
				lo++
			}
		}
		if lo == 0 && up == 0 {
			continue
		}
		cost := lo * up
		if best == -1 || cost < bestCost {
			best, bestCost = v, cost
		}
	}
	return best
}

// fmCombine cancels variable v between a lower constraint (coef < 0) and an
// upper constraint (coef > 0):  |b|·upper + a·lower with a = -lo.Coef[v],
// b = up.Coef[v]. The combined row comes from the arena and is normalized
// in place. It returns ok=false for a vacuous result, feasible=false for a
// constant contradiction, or the normalized combined constraint.
func fmCombine(lo, up system.Constraint, v int, arena *system.Scratch) (nc system.Constraint, ok, feasible bool, err error) {
	a := -lo.Coef[v] // > 0
	b := up.Coef[v]  // > 0
	coef := arena.Row(len(lo.Coef))
	for i := range coef {
		p1, err := linalg.MulChecked(a, up.Coef[i])
		if err != nil {
			return nc, false, true, err
		}
		p2, err := linalg.MulChecked(b, lo.Coef[i])
		if err != nil {
			return nc, false, true, err
		}
		if coef[i], err = linalg.AddChecked(p1, p2); err != nil {
			return nc, false, true, err
		}
	}
	p1, err := linalg.MulChecked(a, up.C)
	if err != nil {
		return nc, false, true, err
	}
	p2, err := linalg.MulChecked(b, lo.C)
	if err != nil {
		return nc, false, true, err
	}
	cc, err := linalg.AddChecked(p1, p2)
	if err != nil {
		return nc, false, true, err
	}
	coef[v] = 0
	norm, feasible, err := (system.Constraint{Coef: coef, C: cc}).NormalizeInPlace()
	if err != nil {
		return nc, false, true, err
	}
	if !feasible {
		return nc, false, false, nil
	}
	if norm.NumVarsUsed() == 0 {
		return nc, false, true, nil // vacuous 0 ≤ C
	}
	return norm, true, true, nil
}

// fmRange computes the allowed range of variable v given the values val of
// the variables chosen so far (0 for the rest). On success it returns the
// middle integer of the range in pick with ok=true. With no integer in the
// (nonempty real) range it returns ok=false and the bracketing integers ⌊lo⌋
// and ⌈up⌉ for branch-and-bound. The rational bounds are never formed:
// floor and ceil are monotone, so the ceiling of the largest lower bound is
// the largest of the lowers' ceilings, and likewise for the other three ends.
func fmRange(lowers, uppers []system.Constraint, v int, val []int64) (pick, bracketLo, bracketHi int64, ok bool, err error) {
	var cl, fl, fu, cu optInt // ⌈lo⌉, ⌊lo⌋, ⌊up⌋, ⌈up⌉
	for _, c := range lowers {
		floor, ceil, err := varBound(c, v, val)
		if err != nil {
			return 0, 0, 0, false, err
		}
		cl.tightenMax(ceil)
		fl.tightenMax(floor)
	}
	for _, c := range uppers {
		floor, ceil, err := varBound(c, v, val)
		if err != nil {
			return 0, 0, 0, false, err
		}
		fu.tightenMin(floor)
		cu.tightenMin(ceil)
	}
	switch {
	case !cl.has && !fu.has:
		return 0, 0, 0, true, nil
	case !cl.has:
		return fu.v, 0, 0, true, nil
	case !fu.has:
		return cl.v, 0, 0, true, nil
	case cl.v <= fu.v:
		return midpoint(cl.v, fu.v), 0, 0, true, nil
	}
	return 0, fl.v, cu.v, false, nil // no integer in [lo, up]
}

// midpoint returns the middle integer of [lo, hi], lo ≤ hi, rounding down.
// The width is taken in uint64, where it cannot overflow.
func midpoint(lo, hi int64) int64 {
	return lo + int64(uint64(hi-lo)/2)
}

// fmBranch implements the paper's branch-and-bound: when the sample range
// for v contains no integer, split the original system on v ≤ ⌊·⌋ and
// v ≥ ⌈·⌉. Both independent → independent; any exact dependent → dependent.
// A budget trip anywhere in the subtree surfaces as Maybe: one unresolved
// branch leaves the split inconclusive, so the conservative verdict is the
// only sound summary. The subcalls reuse the caller's fmScratch — by the
// time a solve branches it has stopped touching the workspace, and the two
// subproblems run strictly one after the other.
func fmBranch(cons []system.Constraint, n, depth, v int, floor, ceil int64, bs *budgetState, fs *fmScratch, arena *system.Scratch) Result {
	if !EnableExplicitBranchAndBound || depth >= maxBranchDepth {
		return unknown(KindFourierMotzkin)
	}
	if !bs.chargeNode() {
		return bs.maybe()
	}
	mk := func(coefV, c int64) []system.Constraint {
		coef := make([]int64, n)
		coef[v] = coefV
		out := make([]system.Constraint, len(cons), len(cons)+1)
		copy(out, cons)
		return append(out, system.Constraint{Coef: coef, C: c})
	}
	left := fmSolve(mk(1, floor), n, depth+1, bs, fs, arena) // v ≤ floor
	if left.Outcome == Dependent && left.Exact {
		return left
	}
	right := fmSolve(mk(-1, -ceil), n, depth+1, bs, fs, arena) // v ≥ ceil
	if right.Outcome == Dependent && right.Exact {
		return right
	}
	if left.Outcome == Maybe || right.Outcome == Maybe {
		return bs.maybe()
	}
	if left.Outcome == Independent && right.Outcome == Independent {
		return independent(KindFourierMotzkin)
	}
	return unknown(KindFourierMotzkin)
}

// resizeBoolsTrue returns s resized to n with every element true.
func resizeBoolsTrue(s []bool, n int) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = true
	}
	return s
}

// resizeInt64sZero returns s resized to n with every element zero.
func resizeInt64sZero(s []int64, n int) []int64 {
	if cap(s) < n {
		s = make([]int64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
