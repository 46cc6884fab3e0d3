package system_test

// External test package: the benchmark builds LargeCorpus candidates
// through internal/workload, which itself imports system.

import (
	"testing"

	"exactdep/internal/ir"
	"exactdep/internal/refs"
	"exactdep/internal/system"
	"exactdep/internal/workload"
)

// BenchmarkBuild measures the set-up every solved pair pays before the
// cascade: Builder.Build into warm scratch, then a warm Preprocessor (the
// Extended GCD step and the bounds re-expressed over the free t
// variables), over the 4,096-nest LargeCorpus's candidates, as each
// analyzer worker runs them. Constant pairs never reach Build and are left
// out.
func BenchmarkBuild(b *testing.B) {
	all, err := workload.LargeCorpusCandidates(4096)
	if err != nil {
		b.Fatal(err)
	}
	var pairs []ir.Pair
	for _, c := range all {
		if c.Class == refs.NeedsTest {
			pairs = append(pairs, c.Pair)
		}
	}
	var bld system.Builder
	var pp system.Preprocessor
	sweep := func() {
		for i := range pairs {
			prob, err := bld.Build(&pairs[i])
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := pp.Preprocess(prob); err != nil {
				b.Fatal(err)
			}
		}
	}
	sweep() // grow the scratch outside the timed loop, as a worker has
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.ReportMetric(float64(len(pairs)), "pairs")
}
