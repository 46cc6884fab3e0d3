package depvec

import (
	"exactdep/internal/dtest"
	"exactdep/internal/system"
)

// ComputeReference is the clone-per-node refinement walk the trail-based
// ComputeObserved replaced, retained verbatim as a differential oracle: it
// ignores Options.Refiner and deep-copies the system at every tree node, so
// its Summary (modulo the trail counters, which stay zero) is the ground
// truth the optimized walk is pinned against (TestRefineDifferential), and
// BenchmarkRefinementDeep prices the gap. Only tests use it, so it lives in
// a test file.
func ComputeReference(ts *system.TSystem, opts Options, onTest func(dtest.Result)) Summary {
	levels := 0
	if ts.Prob != nil {
		levels = ts.Prob.Common
	}
	sum := Summary{Exact: true}

	fixed := make([]Direction, levels) // 0 = refinable
	for lvl := 0; lvl < levels; lvl++ {
		if opts.PruneUnused && !ts.LevelUsed(lvl) {
			fixed[lvl] = Any
			continue
		}
		if opts.PruneDistance {
			if d, ok := ts.Distance(lvl); ok {
				sum.Distances = append(sum.Distances, Distance{Level: lvl, Value: d})
				switch {
				case d > 0:
					fixed[lvl] = Less
				case d < 0:
					fixed[lvl] = Greater
				default:
					fixed[lvl] = Equal
				}
			}
		}
	}

	run := func(s *system.TSystem) dtest.Result {
		var r dtest.Result
		if opts.Pipeline != nil {
			r = opts.Pipeline.Run(s)
		} else {
			r, _ = dtest.Solve(s)
		}
		sum.TestsRun++
		sum.note(r)
		if onTest != nil {
			onTest(r)
		}
		return r
	}

	base := run(ts)
	if base.Outcome == dtest.Independent {
		return sum
	}

	cur := make(Vector, levels)
	for i := range cur {
		cur[i] = Any
	}
	var refine func(s *system.TSystem, lvl int)
	refine = func(s *system.TSystem, lvl int) {
		for lvl < levels && fixed[lvl] != 0 {
			cur[lvl] = fixed[lvl]
			lvl++
		}
		if lvl >= levels {
			sum.Vectors = append(sum.Vectors, cur.Clone())
			return
		}
		for _, dir := range []Direction{Less, Equal, Greater} {
			sub := s.Clone()
			if err := sub.AddDirection(lvl, byte(dir)); err != nil {
				sum.Exact = false // not refuted: refine without it
			} else if r := run(sub); r.Outcome == dtest.Independent {
				continue
			}
			cur[lvl] = dir
			refine(sub, lvl+1)
			cur[lvl] = Any
		}
	}
	refine(ts, 0) // with no common loops: the one empty vector

	if len(sum.Vectors) == 0 {
		sum.ImplicitBB = true
		sum.Dependent = false
		sum.Exact = true
		sum.Trip = dtest.TripNone
		return sum
	}
	sum.Dependent = true
	return sum
}
