package corpus_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"exactdep/internal/corpus"
	"exactdep/internal/memo"
	"exactdep/internal/workload"
)

// storeFixture is a corpus, the verdict store a cold run of it leaves under
// storeOpts — the direction-vector configuration the end-to-end benchmark
// measures — and the store's snapshot.
type storeFixture struct {
	units corpus.Mem
	store *corpus.Store
	snap  []byte
}

func newStoreFixture(units corpus.Mem, err error) storeFixture {
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
	return storeFixture{units, st, buf.Bytes()}
}

// largeStore is the store of the 4,096-nest LargeCorpus, one unit per nest
// (3,553 units of one or a few results). Built once per test binary.
var largeStore = sync.OnceValue(func() storeFixture {
	return newStoreFixture(workload.LargeCorpusUnits(4096))
})

// editStore is corpus-edit's shape: the same 32 LargeCorpus programs as one
// unit per file, 256 results each. Built once per test binary.
var editStore = sync.OnceValue(func() storeFixture {
	var units corpus.Mem
	for _, s := range workload.LargeCorpus(4096) {
		u, err := corpus.FromSource(s.Name+corpus.DirExt, workload.Source(s, false))
		if err != nil {
			return newStoreFixture(nil, err)
		}
		units = append(units, u)
	}
	return newStoreFixture(units, nil)
})

// BenchmarkStoreLoad decodes and validates the large snapshot (LoadStore),
// the corpus.load_store layer of a warm run.
func BenchmarkStoreLoad(b *testing.B) { benchmarkLoad(b, largeStore()) }

// BenchmarkStoreSave encodes the large store (Save to io.Discard), the
// corpus.save_store layer less the file write.
func BenchmarkStoreSave(b *testing.B) { benchmarkSave(b, largeStore()) }

// BenchmarkStoreLoadEditShape is BenchmarkStoreLoad on corpus-edit's shape.
func BenchmarkStoreLoadEditShape(b *testing.B) { benchmarkLoad(b, editStore()) }

// BenchmarkStoreSaveEditShape is BenchmarkStoreSave on corpus-edit's shape.
func BenchmarkStoreSaveEditShape(b *testing.B) { benchmarkSave(b, editStore()) }

// BenchmarkStoreServeEditShape serves every unit of corpus-edit's shape
// from its store (Lookup, then Serve), the store-hit share of
// corpus.emit_ms.
func BenchmarkStoreServeEditShape(b *testing.B) {
	fx := editStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveAll(b, fx)
	}
	b.ReportMetric(float64(len(fx.units)), "units")
}

// BenchmarkFingerprint walks every unit of corpus-edit's shape with a
// Fingerprinter, the corpus.fingerprint layer alone: what a file index hit
// saves besides the parse, lowering and pair enumeration.
func BenchmarkFingerprint(b *testing.B) {
	fx := editStore()
	var f corpus.Fingerprinter
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range fx.units {
			fpSink = f.Unit(u)
		}
	}
	b.ReportMetric(float64(len(fx.units)), "units")
}

// fpSink and digestSink keep the measured results live.
var (
	fpSink     memo.Fingerprint
	digestSink [sha256.Size]byte
)

// BenchmarkFileDigest reads and hashes (SHA-256) the 32 files of
// corpus-edit's shape, what the front end pays per file before a file
// index probe.
func BenchmarkFileDigest(b *testing.B) {
	root := b.TempDir()
	var paths []string
	var size int64
	for _, s := range workload.LargeCorpus(4096) {
		path := filepath.Join(root, s.Name+corpus.DirExt)
		src := workload.Source(s, false)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, path)
		size += int64(len(src))
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			digestSink = sha256.Sum256(src)
		}
	}
	b.ReportMetric(float64(len(paths)), "files")
}

func benchmarkLoad(b *testing.B, fx storeFixture) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := corpus.LoadStore(bytes.NewReader(fx.snap), storeOpts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fx.store.Len()), "units")
	b.ReportMetric(float64(len(fx.snap))/1024, "KB")
}

func benchmarkSave(b *testing.B, fx storeFixture) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fx.store.Save(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fx.store.Len()), "units")
	b.ReportMetric(float64(len(fx.snap))/1024, "KB")
}

// serveAll serves every unit of fx from its store.
func serveAll(tb testing.TB, fx storeFixture) {
	var f corpus.Fingerprinter
	for i := range fx.units {
		u := &fx.units[i]
		su, ok := fx.store.Lookup(u.Fingerprint(&f))
		if !ok {
			tb.Fatalf("unit %s is not in the store", u.Name)
		}
		corpus.Serve(u.Cands, su)
	}
}
