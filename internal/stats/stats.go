// Package stats collects the counters the paper's evaluation reports:
// per-test application counts (Table 1), memoization uniqueness (Tables
// 2–3), direction-vector test counts (Tables 4, 5, 7), and verdict tallies
// (§7's accuracy comparison).
package stats

import (
	"time"

	"exactdep/internal/dtest"
)

// numKinds sizes the per-test arrays (indexed by dtest.Kind).
const numKinds = int(dtest.KindFourierMotzkin) + 1

// Counters accumulates analysis statistics for one program (or a whole
// suite when merged).
type Counters struct {
	// Pairs is the number of candidate pairs examined.
	Pairs int
	// Constant counts pairs handled without testing (Table 1 column 1).
	Constant int
	// GCDIndependent counts pairs rejected by Extended GCD alone (column 2).
	GCDIndependent int
	// Tests counts the deciding test of each base cascade run, indexed by
	// dtest.Kind (Table 1 columns 3–6).
	Tests [numKinds]int
	// DirTests counts every cascade invocation during direction-vector
	// refinement, indexed by dtest.Kind (Tables 4, 5, 7).
	DirTests [numKinds]int
	// TestIndependent counts, per kind, how often the direction-vector
	// cascade invocations returned independent (§7's per-test yields).
	TestIndependent [numKinds]int

	// Cascade pipeline cost accounting (the paper's Table 6 shape), indexed
	// by dtest.Kind and summed over every cascade invocation — base tests
	// and direction-vector refinement alike. StageConsulted counts
	// applicability probes (every problem that reached the stage),
	// StageDecided the probes that decided, and StageTimeNs the cumulative
	// wall time per stage when the analyzer runs with timing enabled
	// (core.Options.TimeCascade); without timing it stays 0.
	StageConsulted [numKinds]int
	StageDecided   [numKinds]int
	StageTimeNs    [numKinds]int64

	// Memoization. FullLookups/FullHits are the candidate-level totals for
	// the with-bounds cache: one lookup per non-constant pair under
	// Memoize whose problem builds without int64 overflow, and FullHits
	// includes the InflightAdopts below.
	FullLookups, FullHits int // with-bounds table
	EqLookups, EqHits     int // without-bounds (GCD) table
	// L1Lookups/L1Hits metered a per-worker cache in front of the
	// with-bounds table that the analyzer no longer keeps (the shared
	// table's lock-free probe answered as fast). They always read 0 and
	// stay only because the benchmark module's ledger reads them
	// (memo.l1_hit_ratio); retire them with that reader.
	L1Lookups, L1Hits int
	// Singleflight dedup (concurrent driver only). InflightWaits counts
	// blocks on another worker's in-progress solve of the same canonical
	// key; InflightAdopts counts waits that ended adopting the winner's
	// cacheable verdict (the difference is re-claims after non-cacheable
	// solves). Serial analysis never touches the in-flight layer.
	InflightWaits, InflightAdopts int
	// DirLookups/DirHits/UniqueDir metered a refinement-subproblem memo the
	// analyzer no longer keeps (it never hit: the full table and the
	// in-flight layer already solve each canonical problem once). They
	// always read 0 and stay only because the benchmark module's ledger
	// reads them (memo.dir_hit_ratio); retire them with that reader.
	DirLookups, DirHits             int
	UniqueFull, UniqueEq, UniqueDir int

	// Clone-free refinement trail accounting. TrailPushes/TrailPops count
	// direction constraints pushed onto and popped off the scratch system's
	// trail (they match once every walk completes); TrailMaxDepth is the
	// deepest simultaneous direction stack seen by any single pair
	// (max-merged, not summed, by Add).
	TrailPushes, TrailPops int
	TrailMaxDepth          int

	// Fourier–Motzkin redundancy elimination. FMDeduped counts derived
	// constraints dropped because an identical row with an equal-or-tighter
	// constant was already present; FMTightened counts duplicates that
	// instead strengthened the retained constraint's constant in place.
	FMDeduped, FMTightened int

	// Verdicts.
	Independent int
	Dependent   int
	Unknown     int
	// Maybe counts pairs whose verdict was degraded by a resource budget,
	// deadline, or cancellation (core.Options.Budget / AnalyzeAllContext):
	// sound "assume dependent" answers the analysis could not finish.
	Maybe      int
	ImplicitBB int
	// Vectors is the total number of dependence direction vectors found.
	Vectors int

	// Graceful-degradation accounting. BudgetTrips counts cascade
	// invocations cut short, indexed by dtest.TripReason (TripNone stays 0);
	// one pair's direction-vector refinement can trip several times.
	// CancelledPairs counts candidates never analyzed because the context
	// was already done when a worker reached them — reported as Maybe
	// results but excluded from Pairs and the verdict tallies.
	BudgetTrips    [dtest.NumTripReasons]int
	CancelledPairs int
}

// Add merges other into c.
func (c *Counters) Add(o *Counters) {
	c.Pairs += o.Pairs
	c.Constant += o.Constant
	c.GCDIndependent += o.GCDIndependent
	for i := range c.Tests {
		c.Tests[i] += o.Tests[i]
		c.DirTests[i] += o.DirTests[i]
		c.TestIndependent[i] += o.TestIndependent[i]
		c.StageConsulted[i] += o.StageConsulted[i]
		c.StageDecided[i] += o.StageDecided[i]
		c.StageTimeNs[i] += o.StageTimeNs[i]
	}
	c.FullLookups += o.FullLookups
	c.FullHits += o.FullHits
	c.L1Lookups += o.L1Lookups
	c.L1Hits += o.L1Hits
	c.EqLookups += o.EqLookups
	c.EqHits += o.EqHits
	c.InflightWaits += o.InflightWaits
	c.InflightAdopts += o.InflightAdopts
	c.DirLookups += o.DirLookups
	c.DirHits += o.DirHits
	c.UniqueFull += o.UniqueFull
	c.UniqueEq += o.UniqueEq
	c.UniqueDir += o.UniqueDir
	c.TrailPushes += o.TrailPushes
	c.TrailPops += o.TrailPops
	if o.TrailMaxDepth > c.TrailMaxDepth {
		c.TrailMaxDepth = o.TrailMaxDepth
	}
	c.FMDeduped += o.FMDeduped
	c.FMTightened += o.FMTightened
	c.Independent += o.Independent
	c.Dependent += o.Dependent
	c.Unknown += o.Unknown
	c.Maybe += o.Maybe
	c.ImplicitBB += o.ImplicitBB
	c.Vectors += o.Vectors
	for i := range c.BudgetTrips {
		c.BudgetTrips[i] += o.BudgetTrips[i]
	}
	c.CancelledPairs += o.CancelledPairs
}

// TripCount returns how many cascade invocations the given budget limit cut
// short.
func (c *Counters) TripCount(r dtest.TripReason) int { return c.BudgetTrips[int(r)] }

// TotalBudgetTrips sums the per-reason trip counters.
func (c *Counters) TotalBudgetTrips() int {
	n := 0
	for _, v := range c.BudgetTrips {
		n += v
	}
	return n
}

// TotalTests is the number of base cascade applications (Table 1 columns
// 3–6 summed; the paper's 5,679).
func (c *Counters) TotalTests() int {
	n := 0
	for _, v := range c.Tests {
		n += v
	}
	return n
}

// TotalDirTests is the number of direction-vector cascade invocations.
func (c *Counters) TotalDirTests() int {
	n := 0
	for _, v := range c.DirTests {
		n += v
	}
	return n
}

// TestCount returns the base-test count for one kind.
func (c *Counters) TestCount(k dtest.Kind) int { return c.Tests[int(k)] }

// DirTestCount returns the direction-vector test count for one kind.
func (c *Counters) DirTestCount(k dtest.Kind) int { return c.DirTests[int(k)] }

// ConsultedCount returns how many cascade runs consulted the stage of kind
// k (applicability probes, Table 6 accounting).
func (c *Counters) ConsultedCount(k dtest.Kind) int { return c.StageConsulted[int(k)] }

// DecidedCount returns how many cascade runs the stage of kind k decided.
func (c *Counters) DecidedCount(k dtest.Kind) int { return c.StageDecided[int(k)] }

// StageTime returns the cumulative wall time of the stage of kind k (zero
// unless the analyzer ran with cascade timing enabled).
func (c *Counters) StageTime(k dtest.Kind) time.Duration {
	return time.Duration(c.StageTimeNs[int(k)])
}

// CostUnits prices the stage of kind k in the paper's relative units: each
// applicability probe costs the stage's cost rank (§3's ordering, Table 6).
func (c *Counters) CostUnits(k dtest.Kind) int {
	return c.StageConsulted[int(k)] * k.CostRank()
}

// TotalCostUnits sums CostUnits over every stage: the price of the whole
// cascade in probe units. A cascade that consulted only SVPC pays 1 per
// problem; one that fell through to Fourier–Motzkin pays 1+2+3+4.
func (c *Counters) TotalCostUnits() int {
	n := 0
	for k := 0; k < numKinds; k++ {
		n += c.CostUnits(dtest.Kind(k))
	}
	return n
}
