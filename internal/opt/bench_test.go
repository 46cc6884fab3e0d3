package opt_test

import (
	"testing"

	"exactdep/internal/ir"
	"exactdep/internal/lang"
	"exactdep/internal/opt"
	"exactdep/internal/workload"
)

// BenchmarkLower lowers the 32 parsed LargeCorpus-shaped programs of a
// 4,096-nest corpus per op.
func BenchmarkLower(b *testing.B) {
	var progs []*lang.Program
	for _, s := range workload.LargeCorpus(4096) {
		p, err := lang.Parse(workload.Source(s, false))
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			lowerSink = opt.Lower(p)
		}
	}
}

// lowerSink keeps the measured result live.
var lowerSink *ir.Unit
