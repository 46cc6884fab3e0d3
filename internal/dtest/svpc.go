package dtest

// SVPC runs the Single Variable Per Constraint test (paper §3.2): when every
// constraint involves at most one variable, each constraint is simply an
// upper or lower bound for that variable; the system is dependent iff every
// variable's tightest lower bound is at most its tightest upper bound. The
// test is exact and runs in O(constraints + variables).
//
// The second return value reports applicability: false means some constraint
// involves two or more variables and the cascade must move on.
func SVPC(s *state) (Result, bool) {
	r, ok, _ := svpc(s, nil)
	return r, ok
}

// svpc is SVPC writing any witness into wbuf (grown as needed and returned,
// so a pipeline can keep the buffer across problems).
func svpc(s *state, wbuf []int64) (Result, bool, []int64) {
	if len(s.multi) > 0 {
		return Result{}, false, wbuf
	}
	if s.infeasible || s.firstConflict() >= 0 {
		return independent(KindSVPC), true, wbuf
	}
	if s.overflow {
		return Result{}, false, wbuf
	}
	w := s.boundsWitness(wbuf)
	return dependent(KindSVPC, w), true, w
}
