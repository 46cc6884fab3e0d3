package corpus_test

// Tests for the store's file life cycle (OpenStore, SaveFile), its
// concurrency contract, and the driver's cross-class rule. They live in
// the external test package so they can use the service's budget-class
// ladder (internal/wire imports corpus).

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/dtest"
	"exactdep/internal/memo"
	"exactdep/internal/persist"
	"exactdep/internal/wire"
	"exactdep/internal/workload"
)

var storeOpts = core.Options{
	Memoize: true, ImprovedMemo: true,
	DirectionVectors: true, PruneUnused: true, PruneDistance: true,
}

// simpleSrcs are sources every budget class decides exactly.
var simpleSrcs = []string{
	"for i = 1 to 100\n  a[i+1] = a[i] + 3\nend\n",
	"for i = 1 to 50\n  b[2*i] = b[2*i+1] + 1\nend\n",
}

// simpleUnits are the units of simpleSrcs.
func simpleUnits(t *testing.T) corpus.Mem {
	t.Helper()
	var units corpus.Mem
	for i, src := range simpleSrcs {
		u, err := corpus.FromSource(fmt.Sprintf("simple%d", i), src)
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, u)
	}
	return units
}

// noTempFiles fails the test if a SaveFile temp file is left in dir.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, ".exactdep-store-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestSignatureFormat pins the signature string: stores are saved under
// it, so a change would orphan every snapshot written before it unless a
// semantics-version bump already makes those stale.
func TestSignatureFormat(t *testing.T) {
	if got, want := corpus.Signature(storeOpts), "v=true pu=true pd=true cascade=full budget=0/0/0"; got != want {
		t.Errorf("Signature = %q, want %q", got, want)
	}
	o := storeOpts
	o.Budget = dtest.Budget{MaxFMEliminations: 64, MaxBranchNodes: 16, MaxConstraints: 512}
	o.Cascade = "fm-only"
	if got, want := corpus.Signature(o), "v=true pu=true pd=true cascade=fm-only budget=64/16/512"; got != want {
		t.Errorf("Signature = %q, want %q", got, want)
	}
}

// TestSaveFileRoundTrip: a store saved with SaveFile reopens with
// OpenStore and serves every unit with the cold run's bytes; the file holds
// exactly what Save writes.
func TestSaveFileRoundTrip(t *testing.T) {
	ctx := context.Background()
	units := simpleUnits(t)
	path := filepath.Join(t.TempDir(), "verdicts.store")
	st, err := corpus.OpenStore(path, storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	d := corpus.NewDriver(storeOpts, 1)
	if err := d.SetStore(st); err != nil {
		t.Fatal(err)
	}
	cold, err := d.Canonical(ctx, units)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, buf.Bytes()) {
		t.Error("SaveFile bytes differ from Save")
	}
	noTempFiles(t, filepath.Dir(path))

	loaded, err := corpus.OpenStore(path, storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	d2 := corpus.NewDriver(storeOpts, 1)
	if err := d2.SetStore(loaded); err != nil {
		t.Fatal(err)
	}
	warm, err := d2.Canonical(ctx, units)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Stats.UnitsReused != len(units) {
		t.Errorf("reopened store served %d of %d units", d2.Stats.UnitsReused, len(units))
	}
	if !bytes.Equal(cold, warm) {
		t.Errorf("reopened store's bytes diverge:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	other := storeOpts
	other.DirectionVectors = false
	if _, err := corpus.OpenStore(path, other); err == nil {
		t.Error("OpenStore accepted a snapshot saved under another signature")
	}
}

// TestOpenStoreMissingFile: a path with no file yet opens as an empty store
// bound to the options; a path that cannot be read as a snapshot errors.
func TestOpenStoreMissingFile(t *testing.T) {
	dir := t.TempDir()
	st, err := corpus.OpenStore(filepath.Join(dir, "absent.store"), storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 || st.Signature() != corpus.Signature(storeOpts) {
		t.Errorf("missing file opened as %d units under %q", st.Len(), st.Signature())
	}
	if _, err := corpus.OpenStore(dir, storeOpts); err == nil {
		t.Error("OpenStore on a directory succeeded")
	}
}

// savedSnapshot returns the snapshot of simpleUnits' store under
// storeOpts.
func savedSnapshot(t *testing.T) []byte {
	t.Helper()
	st := corpus.NewStore(storeOpts)
	d := corpus.NewDriver(storeOpts, 1)
	if err := d.SetStore(st); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunAll(context.Background(), simpleUnits(t)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restamp returns snapshot b with the versions in its header replaced.
func restamp(b []byte, format, semantics uint64) []byte {
	sig := corpus.Signature(storeOpts)
	out := binary.AppendUvarint([]byte(persist.StoreFile.Magic), format)
	out = binary.AppendUvarint(out, semantics)
	out = persist.AppendString(out, sig)
	return append(out, b[len(persist.AppendHeader(nil, persist.StoreFile, sig)):]...)
}

// TestOpenStoreStale: a snapshot written under an older semantics version
// opens as an empty store bound to the options that reports the file, and
// the next SaveFile replaces the file even though nothing was Put.
func TestOpenStoreStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	stale := restamp(savedSnapshot(t), persist.FormatVersion, persist.SemanticsVersion-1)
	if err := os.WriteFile(path, stale, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := corpus.LoadStore(bytes.NewReader(stale), storeOpts); !errors.Is(err, persist.ErrStale) {
		t.Fatalf("LoadStore of a stale snapshot = %v, want persist.ErrStale", err)
	}
	st, err := corpus.OpenStore(path, storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 || st.Signature() != corpus.Signature(storeOpts) {
		t.Fatalf("stale file opened as %d units under %q", st.Len(), st.Signature())
	}
	if err := st.Stale(); !errors.Is(err, persist.ErrStale) || !strings.Contains(err.Error(), path) {
		t.Fatalf("Stale() = %v, want persist.ErrStale naming %s", err, path)
	}
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reopened, err := corpus.OpenStore(path, storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Stale() != nil || reopened.Len() != 0 {
		t.Fatalf("replaced file: Stale() = %v, %d units", reopened.Stale(), reopened.Len())
	}
}

// TestOpenStoreFormatV1: a store written before the file index existed
// (format version 1: the units and no index section) opens stale and
// empty, so the next run solves every file; SaveFile replaces it even
// though the run stored what the file held, and the run after that serves
// every file through the index.
func TestOpenStoreFormatV1(t *testing.T) {
	root, path := t.TempDir(), filepath.Join(t.TempDir(), "verdicts.store")
	for i, src := range simpleSrcs {
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("simple%d.loop", i)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap := savedSnapshot(t) // ends in the empty index's zero count
	if err := os.WriteFile(path, restamp(snap[:len(snap)-1], 1, persist.SemanticsVersion), 0o600); err != nil {
		t.Fatal(err)
	}
	for i, want := range []corpus.Stats{{UnitsSolved: 2}, {UnitsReused: 2, UnitsIndexed: 2}} {
		st, err := corpus.OpenStore(path, storeOpts)
		if err != nil {
			t.Fatal(err)
		}
		if stale := i == 0; (st.Stale() != nil) != stale || stale && st.Len() != 0 {
			t.Fatalf("run %d: Stale() = %v with %d units", i, st.Stale(), st.Len())
		}
		d := corpus.NewDriver(storeOpts, 1)
		if err := d.SetStore(st); err != nil {
			t.Fatal(err)
		}
		if err := d.Run(context.Background(), corpus.Dir(root), nil); err != nil {
			t.Fatal(err)
		}
		got := corpus.Stats{UnitsReused: d.Stats.UnitsReused, UnitsIndexed: d.Stats.UnitsIndexed, UnitsSolved: d.Stats.UnitsSolved}
		if got != want {
			t.Fatalf("run %d: stats %+v, want %+v", i, d.Stats, want)
		}
		if err := st.SaveFile(path); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenStoreWithoutMagic: a file without the header's magic — every gob
// store written before the binary format — fails to open with an error
// that names the file. It is not stale: nothing says it is a store.
func TestOpenStoreWithoutMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.store")
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(struct {
		Version   int
		Signature string
	}{1, corpus.Signature(storeOpts)}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, old.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err := corpus.OpenStore(path, storeOpts)
	if err == nil || errors.Is(err, persist.ErrStale) || !strings.Contains(err.Error(), path) {
		t.Fatalf("OpenStore of a gob store = %v, want a non-stale error naming %s", err, path)
	}
}

// TestOpenStoreNewerVersion: a snapshot from a newer build fails to open;
// it is not stale, because this build cannot tell what it would drop.
func TestOpenStoreNewerVersion(t *testing.T) {
	snap := savedSnapshot(t)
	for _, file := range [][]byte{
		restamp(snap, persist.FormatVersion+1, persist.SemanticsVersion),
		restamp(snap, persist.FormatVersion, persist.SemanticsVersion+1),
	} {
		path := filepath.Join(t.TempDir(), "verdicts.store")
		if err := os.WriteFile(path, file, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := corpus.OpenStore(path, storeOpts); err == nil || errors.Is(err, persist.ErrStale) {
			t.Fatalf("OpenStore of a newer snapshot = %v, want a non-stale error", err)
		}
	}
}

// TestSaveFileSkipsUnchangedStore: SaveFile writes nothing for a store
// with no Put since it was opened or last saved.
func TestSaveFileSkipsUnchangedStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "verdicts.store")
	exists := func(p string) bool {
		_, err := os.Stat(p)
		return err == nil
	}
	st := corpus.NewStore(storeOpts)
	if err := st.SaveFile(path); err != nil || exists(path) {
		t.Fatalf("fresh store: SaveFile = %v, file written = %v", err, exists(path))
	}
	st.Put(memo.Fingerprint{Hi: 1, Lo: 2}, corpus.StoredUnit{Name: "u"})
	if err := st.SaveFile(path); err != nil || !exists(path) {
		t.Fatalf("changed store: SaveFile = %v, file written = %v", err, exists(path))
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveFile(path); err != nil || exists(path) {
		t.Fatalf("saved store: SaveFile = %v, file written = %v", err, exists(path))
	}

	st.Put(memo.Fingerprint{Hi: 3, Lo: 4}, corpus.StoredUnit{Name: "v"})
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	opened, err := corpus.OpenStore(path, storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "other.store")
	if err := opened.SaveFile(other); err != nil || exists(other) {
		t.Fatalf("opened store: SaveFile = %v, file written = %v", err, exists(other))
	}
}

// TestSaveFileFailureKeepsPrevious: a save that fails after writing its
// temp file (the target is a non-empty directory, so the rename fails)
// removes the temp file, leaves what was at the path untouched, and keeps
// the store unsaved, so the next SaveFile writes it.
func TestSaveFileFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "verdicts.store")
	previous := filepath.Join(path, "previous")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(previous, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := corpus.NewStore(storeOpts)
	st.Put(memo.Fingerprint{Hi: 1, Lo: 2}, corpus.StoredUnit{Name: "u"})
	if err := st.SaveFile(path); err == nil {
		t.Fatal("SaveFile onto a non-empty directory succeeded")
	}
	noTempFiles(t, dir)
	if b, err := os.ReadFile(previous); err != nil || string(b) != "previous" {
		t.Fatalf("failed save disturbed the previous entry: %q, %v", b, err)
	}

	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reopened, err := corpus.OpenStore(path, storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 1 {
		t.Fatalf("retried save holds %d units, want 1", reopened.Len())
	}
}

// TestStoreHammer: goroutines Put, Lookup, Len and SaveFile on one store
// at once (make race repeats it under the race detector). Every Put stays
// visible, and a final SaveFile holds every unit.
func TestStoreHammer(t *testing.T) {
	const goroutines, perG = 4, 200
	dir := t.TempDir()
	path := filepath.Join(dir, "hammer.store")
	st := corpus.NewStore(storeOpts)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				name := fmt.Sprintf("g%d-%d", g, i)
				fp := memo.Fingerprint{Hi: uint64(g + 1), Lo: uint64(i)}
				st.Put(fp, corpus.StoredUnit{Name: name})
				if su, ok := st.Lookup(fp); !ok || su.Name != name {
					errs <- fmt.Errorf("%s: lost after Put", name)
					return
				}
				st.Lookup(memo.Fingerprint{Hi: uint64((g+1)%goroutines + 1), Lo: uint64(i)})
				if n := st.Len(); n < i+1 {
					errs <- fmt.Errorf("%s: Len %d after %d own Puts", name, n, i+1)
					return
				}
				if i%50 == 49 {
					if err := st.SaveFile(path); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := st.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	noTempFiles(t, dir)
	saved, err := corpus.OpenStore(path, storeOpts)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Len() != goroutines*perG {
		t.Fatalf("saved store holds %d units, want %d", saved.Len(), goroutines*perG)
	}
}

// TestCrossClassStore: a minimal-class driver over a store bound to the
// default (exhaustive) class is served only stored units without Maybe
// verdicts and stores back only untripped results, while a default-class
// driver serves the same store under the ordinary rules. SetStore still
// rejects a store whose result surface differs.
func TestCrossClassStore(t *testing.T) {
	ctx := context.Background()
	classOpts := func(name string) core.Options {
		i, ok := wire.ClassIndex(name)
		if !ok {
			t.Fatalf("no budget class %q", name)
		}
		o := storeOpts
		o.Budget = wire.BudgetClasses[i].Budget
		return o
	}
	exhaustive, minimal := classOpts("exhaustive"), classOpts("minimal")
	driver := func(opts core.Options, st *corpus.Store) *corpus.Driver {
		d := corpus.NewDriver(opts, 1)
		if err := d.SetStore(st); err != nil {
			t.Fatal(err)
		}
		return d
	}
	units := simpleUnits(t)
	for _, spec := range workload.FMHardPrograms() {
		u, err := corpus.FromSource(spec.Name, workload.FMHardSource(spec))
		if err != nil {
			t.Fatal(err)
		}
		units = append(units, u)
	}
	untripped := func(ur *corpus.UnitResult) bool {
		for _, r := range ur.Results {
			if r.Trip != dtest.TripNone {
				return false
			}
		}
		return true
	}

	// Store rule: only the minimal driver's untripped units enter.
	st := corpus.NewStore(exhaustive)
	urs, err := driver(minimal, st).RunAll(ctx, units)
	if err != nil {
		t.Fatal(err)
	}
	var tripped []corpus.UnitResult
	for i := range urs {
		_, stored := st.Lookup(urs[i].Fingerprint)
		if stored != untripped(&urs[i]) {
			t.Errorf("unit %s: stored=%v, untripped=%v", urs[i].Name, stored, untripped(&urs[i]))
		}
		if !untripped(&urs[i]) {
			tripped = append(tripped, urs[i])
		}
	}
	if len(tripped) == 0 || len(tripped) == len(urs) {
		t.Fatalf("premise: want some but not all units tripped at minimal, got %d of %d", len(tripped), len(urs))
	}

	// Serve rule: plant the Maybe-carrying results, as a store bound to a
	// budgeted default class would hold them. The minimal driver re-solves
	// them; a default-class driver serves them.
	for i := range tripped {
		if tripped[i].Cost.Maybe == 0 {
			t.Fatalf("premise: tripped unit %s has no Maybe verdict", tripped[i].Name)
		}
		st.Put(tripped[i].Fingerprint, corpus.ToStored(tripped[i].Name, tripped[i].Results))
	}
	m := driver(minimal, st)
	if _, err := m.RunAll(ctx, units); err != nil {
		t.Fatal(err)
	}
	if m.Stats.UnitsReused != len(units)-len(tripped) || m.Stats.UnitsSolved != len(tripped) {
		t.Errorf("cross-class driver: %+v, want %d reused and %d solved", m.Stats, len(units)-len(tripped), len(tripped))
	}
	e := driver(exhaustive, st)
	if _, err := e.RunAll(ctx, units); err != nil {
		t.Fatal(err)
	}
	if e.Stats.UnitsReused != len(units) {
		t.Errorf("same-class driver reused %d of %d units", e.Stats.UnitsReused, len(units))
	}

	// Once exact verdicts replace the planted ones, the minimal driver is
	// served everything, with the exhaustive bytes.
	fresh := corpus.NewStore(exhaustive)
	want, err := driver(exhaustive, fresh).Canonical(ctx, units)
	if err != nil {
		t.Fatal(err)
	}
	m = driver(minimal, fresh)
	got, err := m.Canonical(ctx, units)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.UnitsReused != len(units) {
		t.Errorf("cross-class driver reused %d of %d exact units", m.Stats.UnitsReused, len(units))
	}
	if !bytes.Equal(got, want) {
		t.Error("cross-class served bytes diverge from the exhaustive run")
	}

	other := minimal
	other.DirectionVectors = false
	if err := corpus.NewDriver(other, 1).SetStore(st); err == nil {
		t.Error("SetStore accepted a store whose result surface differs")
	}
}
