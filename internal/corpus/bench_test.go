package corpus_test

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"exactdep/internal/corpus"
	"exactdep/internal/workload"
)

// largeStore is the verdict store a cold run of the 4,096-nest LargeCorpus
// leaves under storeOpts — the direction-vector configuration the
// end-to-end benchmark measures — and its gob snapshot. Built once per
// test binary; both store benchmarks read it.
var largeStore = sync.OnceValues(func() (*corpus.Store, []byte) {
	units, err := workload.LargeCorpusUnits(4096)
	if err != nil {
		panic(err)
	}
	d := corpus.NewDriver(storeOpts, 0)
	st := corpus.NewStore(storeOpts)
	if err := d.SetStore(st); err != nil {
		panic(err)
	}
	if _, err := d.RunAll(context.Background(), units); err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		panic(err)
	}
	return st, buf.Bytes()
})

// BenchmarkStoreLoad decodes and validates the large snapshot (LoadStore),
// the corpus.load_store layer of a warm run.
func BenchmarkStoreLoad(b *testing.B) {
	st, snap := largeStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corpus.LoadStore(bytes.NewReader(snap), storeOpts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Len()), "units")
	b.ReportMetric(float64(len(snap))/1024, "KB")
}

// BenchmarkStoreSave encodes the large store (Save to io.Discard), the
// corpus.save_store layer less the file write.
func BenchmarkStoreSave(b *testing.B) {
	st, snap := largeStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Len()), "units")
	b.ReportMetric(float64(len(snap))/1024, "KB")
}
