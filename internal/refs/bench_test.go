package refs_test

import (
	"testing"

	"exactdep/internal/ir"
	"exactdep/internal/lang"
	"exactdep/internal/opt"
	"exactdep/internal/refs"
	"exactdep/internal/workload"
)

// BenchmarkPairs enumerates the candidate pairs of the 32 lowered
// LargeCorpus-shaped units of a 4,096-nest corpus per op.
func BenchmarkPairs(b *testing.B) {
	var units []*ir.Unit
	for _, s := range workload.LargeCorpus(4096) {
		p, err := lang.Parse(workload.Source(s, false))
		if err != nil {
			b.Fatal(err)
		}
		units = append(units, opt.Lower(p))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			pairsSink = refs.Pairs(u)
		}
	}
}

// pairsSink keeps the measured result live.
var pairsSink []refs.Candidate
