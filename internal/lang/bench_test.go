package lang_test

import (
	"testing"

	"exactdep/internal/lang"
	"exactdep/internal/workload"
)

// BenchmarkParse lexes and parses the 32 LargeCorpus-shaped programs of a
// 4,096-nest corpus per op; MB/s is source throughput.
func BenchmarkParse(b *testing.B) {
	var srcs []string
	n := 0
	for _, s := range workload.LargeCorpus(4096) {
		src := workload.Source(s, false)
		srcs = append(srcs, src)
		n += len(src)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			var err error
			if parseSink, err = lang.Parse(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// parseSink keeps the measured result live.
var parseSink *lang.Program
