package main

import (
	"exactdep/internal/corpus"
	"exactdep/internal/stats"
)

// layerCounts accumulates what traced ops report besides time: the
// analyzer's counters, the corpus driver's unit traffic and front-end
// volumes, summed over the traced ops.
type layerCounts struct {
	ops        int
	counters   stats.Counters
	units      int
	reused     int
	pairsSolve int
	refsPairs  int     // candidate pairs enumerated by refs.Pairs
	srcBytes   float64 // source bytes handed to lang.Parse
	parseNs    float64 // lang.Parse busy time (span durations, not shares)
	storeKB    float64
}

func (c *layerCounts) addDriver(st corpus.Stats, ct *stats.Counters) {
	c.units += st.Units
	c.reused += st.UnitsReused
	c.pairsSolve += st.PairsSolved
	c.counters.Add(ct)
}

func (c *layerCounts) perOp(v int) float64 {
	if c.ops == 0 {
		return 0
	}
	return float64(v) / float64(c.ops)
}

// addLedger reports the ledger lines as per-op milliseconds: every line
// named in ledgerLines, core.solve as the sum of core.other and the
// cascade stages, and the traced op time they add up to.
func addLedger(r *report, l *ledger) {
	n := l.ops
	r.add("trace.op_ms", "ms", l.opNs/float64(max(n, 1))/1e6, n)
	solve := l.perOpMs("core.other")
	for _, cs := range cascadeStages {
		solve += l.perOpMs(cs.line)
	}
	r.add("core.solve_ms", "ms", solve, n)
	var sum float64
	for _, line := range ledgerLines {
		r.add(line+"_ms", "ms", l.perOpMs(line), n)
		sum += l.perOpMs(line)
	}
	// Printed only: the ledger lines add up to trace.op_ms.
	r.add("trace.ledger_sum_ms", "ms", sum, n)
}

// addCounts reports the per-layer counters and ratios. Ratios keep their
// bases; a layer a workload never reaches reads 0 with base 0/0.
func addCounts(r *report, c *layerCounts) {
	ct := &c.counters
	mbps := 0.0
	if c.parseNs > 0 {
		mbps = c.srcBytes / 1e6 / (c.parseNs / 1e9)
	}
	r.add("lang.mb_per_s", "MB/s", mbps, c.ops)
	r.add("refs.pairs", "count", c.perOp(c.refsPairs), c.ops)
	r.add("corpus.store_kb", "KB", c.storeKB, 1)
	r.addRatio("corpus.reused_ratio", ratio{float64(c.reused), float64(c.units)})
	r.add("core.pairs_solved", "count", c.perOp(c.pairsSolve), c.ops)
	r.add("system.gcd_independent", "count", c.perOp(ct.GCDIndependent), c.ops)
	r.add("system.constant", "count", c.perOp(ct.Constant), c.ops)
	for _, cs := range cascadeStages {
		r.addRatio(cs.line+"_decided_ratio", ratio{float64(ct.StageDecided[cs.kind]), float64(ct.StageConsulted[cs.kind])})
	}
	r.add("dtest.budget_trips", "count", c.perOp(ct.TotalBudgetTrips()), c.ops)
	r.addRatio("memo.full_hit_ratio", ratio{float64(ct.FullHits), float64(ct.FullLookups)})
	r.addRatio("memo.l1_hit_ratio", ratio{float64(ct.L1Hits), float64(ct.L1Lookups)})
	r.addRatio("memo.eq_hit_ratio", ratio{float64(ct.EqHits), float64(ct.EqLookups)})
	r.addRatio("memo.dir_hit_ratio", ratio{float64(ct.DirHits), float64(ct.DirLookups)})
	r.add("memo.unique_full", "count", c.perOp(ct.UniqueFull), c.ops)
	r.add("memo.inflight_waits", "count", c.perOp(ct.InflightWaits), c.ops)
	r.add("depvec.dir_tests", "count", c.perOp(ct.TotalDirTests()), c.ops)
	r.add("depvec.trail_pushes", "count", c.perOp(ct.TrailPushes), c.ops)
	r.add("depvec.vectors", "count", c.perOp(ct.Vectors), c.ops)
}

// addZero reports metrics of layers a workload does not reach.
func addZero(r *report, unit string, names ...string) {
	for _, n := range names {
		r.add(n, unit, 0, 0)
	}
}
