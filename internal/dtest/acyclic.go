package dtest

import (
	"exactdep/internal/linalg"
	"exactdep/internal/system"
)

// elimEntry records one Acyclic-test elimination step so a witness can be
// reconstructed afterwards.
type elimEntry struct {
	v     int
	fixed bool
	val   int64 // when fixed
	// For unbounded eliminations: sign +1 means the multi-variable
	// constraints only bounded v from above (all coefficients positive), so
	// the dropped constraints are satisfied by a small enough value.
	sign int
	// The dropped constraints are the run [dropStart, dropEnd) of the
	// scratch's shared dropped buffer.
	dropStart, dropEnd int
	selfBound          optInt // v's own single-variable bound on the satisfiable side
}

// Acyclic runs the Acyclic test (paper §3.3). It repeatedly finds a variable
// that the multi-variable constraints bound in only one direction, pins it
// to its single-variable bound on the opposite side (or discharges its
// constraints entirely when that side is unbounded), and substitutes. If all
// multi-variable constraints are eliminated this way the simplified system
// is decided exactly by the bounds check; this succeeds precisely when the
// paper's constraint graph is acyclic.
//
// When a cycle blocks progress the test is inapplicable: it returns
// decided=false together with the partially simplified state, which the
// paper notes "simplifies the system for the next stages".
//
// This convenience wrapper allocates a private scratch; the pipeline calls
// acyclicApply on its own.
func Acyclic(s *state) (res Result, simplified *state, decided bool) {
	return acyclicApply(s, newScratch())
}

// acyclicApply is Acyclic working entirely out of sc: the clone, the
// journal, the dropped-constraint runs, and the witness all live in scratch
// buffers, so a decision allocates nothing at steady state. The returned
// simplified state and witness alias sc and stay valid until its next
// prepare.
func acyclicApply(s *state, sc *Scratch) (res Result, simplified *state, decided bool) {
	st := &sc.ac
	sc.cloneStateInto(st, s)
	sc.journal = sc.journal[:0]
	sc.dropped = sc.dropped[:0]
	for {
		if st.infeasible || st.firstConflict() >= 0 {
			return independent(KindAcyclic), nil, true
		}
		if len(st.multi) == 0 {
			sc.witness = st.boundsWitness(sc.witness)
			replayJournal(sc.witness, sc.journal, sc.dropped)
			return dependent(KindAcyclic, sc.witness), nil, true
		}
		v, sign := st.findOneSided()
		if v < 0 {
			return Result{}, st, false // cycle: not applicable
		}
		entry, err := st.eliminate(v, sign, sc)
		if err != nil {
			// Arithmetic overflow: treat as inapplicable and let the backup
			// test (which handles its own overflow) take over, on a fresh
			// copy of the unsimplified system.
			sc.cloneStateInto(st, s)
			return Result{}, st, false
		}
		sc.journal = append(sc.journal, entry)
	}
}

// findOneSided returns a variable whose multi-constraint coefficients all
// share one sign (+1: only upper bounds, -1: only lower bounds), or -1.
func (s *state) findOneSided() (v, sign int) {
	for i := 0; i < s.n; i++ {
		pos, neg := 0, 0
		for _, c := range s.multi {
			switch {
			case c.Coef[i] > 0:
				pos++
			case c.Coef[i] < 0:
				neg++
			}
		}
		switch {
		case pos == 0 && neg == 0:
			continue
		case neg == 0:
			return i, 1
		case pos == 0:
			return i, -1
		}
	}
	return -1, 0
}

// eliminate removes variable v from all multi-variable constraints, either
// by substituting its tight bound or by dropping the constraints when the
// bound is infinite. Dropped constraints are parked in sc.dropped.
func (s *state) eliminate(v, sign int, sc *Scratch) (elimEntry, error) {
	var fixVal int64
	hasFix := false
	if sign > 0 && s.lb[v].has {
		fixVal, hasFix = s.lb[v].v, true
	}
	if sign < 0 && s.ub[v].has {
		fixVal, hasFix = s.ub[v].v, true
	}
	if hasFix {
		if err := s.substitute(v, fixVal, sc); err != nil {
			return elimEntry{}, err
		}
		return elimEntry{v: v, fixed: true, val: fixVal}, nil
	}
	// Unbounded on the satisfiable side: every multi constraint containing v
	// can be discharged by pushing v far enough.
	entry := elimEntry{v: v, sign: sign, dropStart: len(sc.dropped)}
	if sign > 0 {
		entry.selfBound = s.ub[v]
	} else {
		entry.selfBound = s.lb[v]
	}
	keep := s.multi[:0]
	for _, c := range s.multi {
		if c.Coef[v] != 0 {
			sc.dropped = append(sc.dropped, c)
		} else {
			keep = append(keep, c)
		}
	}
	s.multi = keep
	entry.dropEnd = len(sc.dropped)
	// v's own single bounds are trivially satisfiable now; clear them so the
	// final bounds check ignores v (the replay assigns it a valid value).
	s.lb[v], s.ub[v] = optInt{}, optInt{}
	return entry, nil
}

// substitute sets t_v := val in every multi-variable constraint,
// reclassifying constraints that become single-variable or constant. It
// also pins v's bounds to val. Rewritten coefficient rows come from the
// scratch arena; the multi list is compacted in place (each iteration
// appends at most one constraint, so the write index never passes the read
// index).
func (s *state) substitute(v int, val int64, sc *Scratch) error {
	old := s.multi
	s.multi = s.multi[:0]
	for _, c := range old {
		a := c.Coef[v]
		if a == 0 {
			s.multi = append(s.multi, c)
			continue
		}
		prod, err := linalg.MulChecked(a, val)
		if err != nil {
			return err
		}
		nc, err := linalg.SubChecked(c.C, prod)
		if err != nil {
			return err
		}
		coef := sc.sys.Row(len(c.Coef))
		copy(coef, c.Coef)
		coef[v] = 0
		norm, ok := (system.Constraint{Coef: coef, C: nc}).NormalizeInPlace()
		if !ok {
			s.infeasible = true
			continue
		}
		s.add(norm)
	}
	s.lb[v] = optInt{has: true, v: val}
	s.ub[v] = optInt{has: true, v: val}
	return nil
}

// replayJournal assigns values to eliminated variables, newest elimination
// first, so every constraint dropped at step k is evaluated with the values
// of all variables that were still alive at step k.
func replayJournal(w []int64, journal []elimEntry, dropped []system.Constraint) {
	for k := len(journal) - 1; k >= 0; k-- {
		e := journal[k]
		if e.fixed {
			w[e.v] = e.val
			continue
		}
		bound := e.selfBound
		for _, c := range dropped[e.dropStart:e.dropEnd] {
			var rest int64
			for j, a := range c.Coef {
				if j == e.v || a == 0 {
					continue
				}
				rest += a * w[j]
			}
			// a_v·v ≤ C - rest
			if e.sign > 0 {
				bound.tightenMin(linalg.FloorDiv(c.C-rest, c.Coef[e.v]))
			} else {
				bound.tightenMax(linalg.CeilDiv(c.C-rest, c.Coef[e.v]))
			}
		}
		if bound.has {
			w[e.v] = bound.v
		}
	}
}
