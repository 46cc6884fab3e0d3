package corpus

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// indexedRun runs a store-backed driver over src and returns its canonical
// bytes and stats.
func indexedRun(t *testing.T, st *Store, workers int, src Source) ([]byte, Stats) {
	t.Helper()
	d := NewDriver(testOpts, workers)
	if err := d.SetStore(st); err != nil {
		t.Fatal(err)
	}
	b, err := d.Canonical(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return b, d.Stats
}

// coldCanonical is the canonical rendering of src by a storeless driver.
func coldCanonical(t *testing.T, src Source) []byte {
	t.Helper()
	b, err := NewDriver(testOpts, 1).Canonical(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func writeFile(t *testing.T, root, rel, src string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(rel)), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestIndexParsesOnlyEditedFiles: after a run that fills the store, editing
// k of N files makes the next run parse exactly those k — the other N-k
// are served through the file index — at every worker count, with the
// canonical bytes of a cold run over the edited files.
func TestIndexParsesOnlyEditedFiles(t *testing.T) {
	const n = 16
	for _, workers := range []int{0, 1, 2, 4, 8} {
		root, names := pipelineDir(t, n)
		st := NewStore(testOpts)
		if _, cs := indexedRun(t, st, workers, Dir(root)); cs.UnitsIndexed != 0 || cs.UnitsSolved != n {
			t.Fatalf("workers=%d: cold stats %+v", workers, cs)
		}
		if len(st.files) != n {
			t.Fatalf("workers=%d: cold run indexed %d of %d files", workers, len(st.files), n)
		}
		version := 100
		for _, k := range []int{1, 2, 3} {
			for j := 0; j < k; j++ {
				version++
				writeFile(t, root, names[(5*version)%n], pipelineSrc(version))
			}
			got, cs := indexedRun(t, st, workers, Dir(root))
			if cs.Units-cs.UnitsIndexed != k || cs.UnitsSolved != k || cs.UnitsReused != n-k {
				t.Fatalf("workers=%d: %d files edited, stats %+v", workers, k, cs)
			}
			if want := coldCanonical(t, Dir(root)); !bytes.Equal(got, want) {
				t.Fatalf("workers=%d: canonical bytes after %d edits differ from a cold run", workers, k)
			}
		}
		// The edits are indexed now: nothing is parsed.
		if _, cs := indexedRun(t, st, workers, Dir(root)); cs.UnitsIndexed != n {
			t.Fatalf("workers=%d: rerun stats %+v", workers, cs)
		}
	}
}

// TestIndexRenamedFile: a renamed file misses the index, which is keyed by
// name, and is served by its fingerprint; the next run serves it through
// the index under its new name.
func TestIndexRenamedFile(t *testing.T) {
	root, names := pipelineDir(t, 6)
	st := NewStore(testOpts)
	indexedRun(t, st, 1, Dir(root))
	renamed := "z-renamed.loop"
	if err := os.Rename(filepath.Join(root, filepath.FromSlash(names[2])), filepath.Join(root, renamed)); err != nil {
		t.Fatal(err)
	}
	got, cs := indexedRun(t, st, 1, Dir(root))
	if cs.UnitsIndexed != 5 || cs.UnitsReused != 6 || cs.UnitsSolved != 0 {
		t.Fatalf("run after the rename: %+v", cs)
	}
	if want := coldCanonical(t, Dir(root)); !bytes.Equal(got, want) {
		t.Fatal("canonical bytes after the rename differ from a cold run")
	}
	if _, ok := st.file(renamed); !ok {
		t.Fatalf("%s was not indexed", renamed)
	}
	if _, cs := indexedRun(t, st, 1, Dir(root)); cs.UnitsIndexed != 6 {
		t.Fatalf("second run after the rename: %+v", cs)
	}
}

// TestIndexCommentOnlyEdit: a comment-only edit changes the bytes but not
// the unit. The next run parses the file once and serves it by its
// fingerprint, and records the new digest, so the store is saved and the
// run after that serves it through the index.
func TestIndexCommentOnlyEdit(t *testing.T) {
	root, names := pipelineDir(t, 6)
	path := filepath.Join(t.TempDir(), "v.store")
	run := func() Stats {
		t.Helper()
		st, err := OpenStore(path, testOpts)
		if err != nil {
			t.Fatal(err)
		}
		_, cs := indexedRun(t, st, 1, Dir(root))
		if err := st.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		return cs
	}
	run()
	writeFile(t, root, names[4], "# a comment\n"+pipelineSrc(4))
	if cs := run(); cs.UnitsIndexed != 5 || cs.UnitsReused != 6 {
		t.Fatalf("run after the comment edit: %+v", cs)
	}
	if cs := run(); cs.UnitsIndexed != 6 {
		t.Fatalf("second run after the comment edit: %+v", cs)
	}
}

// TestIndexHitStoreNoLongerServes: an index entry whose unit the store no
// longer holds is a miss: the file is parsed and solved, and indexed again.
func TestIndexHitStoreNoLongerServes(t *testing.T) {
	root, names := pipelineDir(t, 6)
	st := NewStore(testOpts)
	indexedRun(t, st, 1, Dir(root))
	e, _ := st.file(names[1])
	delete(st.units, e.fp)
	got, cs := indexedRun(t, st, 1, Dir(root))
	if cs.UnitsIndexed != 5 || cs.UnitsSolved != 1 {
		t.Fatalf("run without the indexed unit: %+v", cs)
	}
	if want := coldCanonical(t, Dir(root)); !bytes.Equal(got, want) {
		t.Fatal("canonical bytes differ from a cold run")
	}
	if _, cs := indexedRun(t, st, 1, Dir(root)); cs.UnitsIndexed != 6 {
		t.Fatalf("rerun: %+v", cs)
	}
}

// TestIndexHitLoadPairs: results served through the index carry no pairs
// until LoadPairs, which parses the bytes the run read — not the file as
// it is now — and attaches the pairs a cold run reports.
func TestIndexHitLoadPairs(t *testing.T) {
	root, names := pipelineDir(t, 4)
	st := NewStore(testOpts)
	d := NewDriver(testOpts, 2)
	if err := d.SetStore(st); err != nil {
		t.Fatal(err)
	}
	cold, err := d.RunAll(context.Background(), Dir(root))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := d.RunAll(context.Background(), Dir(root))
	if err != nil {
		t.Fatal(err)
	}
	if d.Stats.UnitsIndexed != len(names) {
		t.Fatalf("warm stats %+v", d.Stats)
	}
	for _, name := range names {
		writeFile(t, root, name, "for k = 1 to 3\n  q[k] = q[k]\nend\n")
	}
	for i := range warm {
		ur := &warm[i]
		if ur.Results[0].Pair.A.Ref.Array != "" {
			t.Fatalf("%s: an index hit carries a pair", ur.Name)
		}
		if !reflect.DeepEqual(ur.Warnings, cold[i].Warnings) {
			t.Fatalf("%s: warnings %q, want %q", ur.Name, ur.Warnings, cold[i].Warnings)
		}
		for range 2 { // the second call is a no-op
			if err := ur.LoadPairs(); err != nil {
				t.Fatal(err)
			}
		}
		for j := range ur.Results {
			got, want := ur.Results[j].Pair, cold[i].Results[j].Pair
			if got.A.Ref.String() != want.A.Ref.String() || got.B.Ref.String() != want.B.Ref.String() || got.Common != want.Common {
				t.Fatalf("%s result %d: pair %s vs %s, want %s vs %s",
					ur.Name, j, got.A.Ref, got.B.Ref, want.A.Ref, want.B.Ref)
			}
		}
	}
	if err := cold[0].LoadPairs(); err != nil || cold[0].Results[0].Pair.A.Ref.Array == "" {
		t.Fatalf("LoadPairs on a parsed unit: %v", err)
	}
}

// TestStoreIndexRoundTrip: the file index survives Save and LoadStore, and
// a store with an index encodes to the same bytes again.
func TestStoreIndexRoundTrip(t *testing.T) {
	root, _ := pipelineDir(t, 5)
	writeFile(t, root, "w.loop", "for i = 1 to 10\n  c[i*i] = c[i] + 1\nend\n")
	st := NewStore(testOpts)
	indexedRun(t, st, 1, Dir(root))
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(bytes.NewReader(buf.Bytes()), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.files, st.files) {
		t.Fatalf("file index changed in the round trip:\n got %+v\nwant %+v", loaded.files, st.files)
	}
	if e := loaded.files["w.loop"]; len(e.warnings) == 0 {
		t.Fatal("the lowering warnings were not indexed")
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("a loaded store encodes to other bytes")
	}
}

// TestStoreHammerFileIndex: drivers on several goroutines share one store,
// each re-running its own directory after an edit, while the others'
// front-end pools read the file index and their runs record entries and
// save the store. The directories use the same file names, so the drivers
// overwrite each other's entries; every run must still equal a cold run
// of its files. make race repeats it ten times.
func TestStoreHammerFileIndex(t *testing.T) {
	const goroutines, rounds = 4, 6
	ctx := context.Background()
	st := NewStore(testOpts)
	path := filepath.Join(t.TempDir(), "hammer.store")
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		root, names := pipelineDir(t, 8)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if r > 0 {
					edit := filepath.Join(root, filepath.FromSlash(names[(g+r)%len(names)]))
					if err := os.WriteFile(edit, []byte(pipelineSrc(100*g+r)), 0o644); err != nil {
						errs <- err
						return
					}
				}
				d := NewDriver(testOpts, 2)
				if err := d.SetStore(st); err != nil {
					errs <- err
					return
				}
				got, err := d.Canonical(ctx, Dir(root))
				if err != nil {
					errs <- err
					return
				}
				want, err := NewDriver(testOpts, 1).Canonical(ctx, Dir(root))
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("goroutine %d round %d: canonical bytes differ from a cold run", g, r)
					return
				}
				if err := st.SaveFile(path); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	saved, err := OpenStore(path, testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(saved.files) == 0 {
		t.Fatal("the saved store has no file index")
	}
}
