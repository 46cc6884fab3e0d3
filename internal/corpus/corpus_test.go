package corpus

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"exactdep/internal/core"
	"exactdep/internal/dtest"
	"exactdep/internal/memo"
	"exactdep/internal/persist"
)

var testOpts = core.Options{
	Memoize: true, ImprovedMemo: true,
	DirectionVectors: true, PruneUnused: true, PruneDistance: true,
}

const srcA = "for i = 1 to 100\n  a[i+1] = a[i] + 3\nend\n"
const srcB = "for i = 1 to 50\n  b[2*i] = b[2*i+1] + 1\nend\n"

func memUnits(t testing.TB) Mem {
	t.Helper()
	ua, err := FromSource("a", srcA)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := FromSource("b", srcB)
	if err != nil {
		t.Fatal(err)
	}
	return Mem{ua, ub}
}

func TestDirSource(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile := func(rel, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, rel), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("z.loop", srcA)
	writeFile(filepath.Join("sub", "a.loop"), srcB)
	writeFile("ignored.txt", "not a loop file")

	units, err := Dir(root).Units()
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 {
		t.Fatalf("got %d units, want 2", len(units))
	}
	// Sorted relative slash paths, recursive, non-.loop files skipped.
	if units[0].Name != "sub/a.loop" || units[1].Name != "z.loop" {
		t.Fatalf("unit order %q, %q", units[0].Name, units[1].Name)
	}
	if len(units[0].Cands) == 0 || len(units[1].Cands) == 0 {
		t.Fatal("units enumerated no candidates")
	}

	if _, err := Dir(t.TempDir()).Units(); err == nil {
		t.Fatal("empty directory must error")
	}

	paths := []string{filepath.Join(root, "z.loop"), filepath.Join(root, "sub", "a.loop")}
	fu, err := Files(paths...).Units()
	if err != nil {
		t.Fatal(err)
	}
	if len(fu) != 2 || fu[0].Name != paths[0] || fu[1].Name != paths[1] {
		t.Fatalf("Files units: %+v", fu)
	}

	if _, err := FromSource("bad", "for i = \n"); err == nil {
		t.Fatal("syntax error must surface")
	}
}

// TestFingerprintSensitivity: identical units agree, and every
// verdict-relevant edit — a subscript constant, a loop bound, a symbol, the
// pair population — moves the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	var f Fingerprinter
	base := func() Unit {
		u, err := FromSource("u", srcA)
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	fp := f.Unit(base())
	if fp.IsZero() {
		t.Fatal("fingerprint of a nonempty unit is zero")
	}
	if got := f.Unit(base()); got != fp {
		t.Fatalf("identical units fingerprint differently: %s vs %s", got, fp)
	}
	// A renamed unit (same structure) keeps its fingerprint: hits are
	// content-addressed.
	ren := base()
	ren.Name = "renamed"
	if got := f.Unit(ren); got != fp {
		t.Fatal("unit name must not enter the fingerprint")
	}

	edits := map[string]func(*Unit){
		"subscript constant": func(u *Unit) {
			s := u.Cands[0].Pair.A.Ref.Subscripts
			s[0] = s[0].Clone()
			s[0].Const++
		},
		"loop bound": func(u *Unit) {
			u.Cands[0].Pair.A.Loops[0].Upper.Const++
		},
		"coefficient": func(u *Unit) {
			s := u.Cands[0].Pair.B.Ref.Subscripts
			s[0] = s[0].Clone()
			for i := range s[0].Terms {
				s[0].Terms[i].Coeff++
			}
		},
		"dropped pair": func(u *Unit) {
			u.Cands = u.Cands[:len(u.Cands)-1]
		},
		"symbol set": func(u *Unit) {
			u.Cands[0].Pair.Symbols = append(u.Cands[0].Pair.Symbols, "n")
		},
	}
	for name, edit := range edits {
		u := base()
		edit(&u)
		if got := f.Unit(u); got == fp {
			t.Errorf("%s edit did not change the fingerprint", name)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	units := memUnits(t)
	d := NewDriver(testOpts, 1)
	if err := d.SetStore(NewStore(testOpts)); err != nil {
		t.Fatal(err)
	}
	cold, err := d.RunAll(context.Background(), units)
	if err != nil {
		t.Fatal(err)
	}
	if d.Stats.UnitsSolved != len(units) || d.Stats.UnitsReused != 0 {
		t.Fatalf("cold stats: %+v", d.Stats)
	}

	var buf bytes.Buffer
	if err := d.Store().Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(bytes.NewReader(buf.Bytes()), testOpts)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != d.Store().Len() {
		t.Fatalf("round-trip lost units: %d vs %d", loaded.Len(), d.Store().Len())
	}

	// A fresh driver over the loaded store must serve everything.
	d2 := NewDriver(testOpts, 1)
	if err := d2.SetStore(loaded); err != nil {
		t.Fatal(err)
	}
	warm, err := d2.RunAll(context.Background(), units)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Stats.UnitsReused != len(units) || d2.Stats.UnitsSolved != 0 {
		t.Fatalf("warm stats: %+v", d2.Stats)
	}
	if d2.Analyzer().Stats.Pairs != 0 {
		t.Fatalf("warm run analyzed %d pairs, want 0", d2.Analyzer().Stats.Pairs)
	}
	var cb, wb []byte
	for i := range cold {
		cb = AppendCanonical(cb, &cold[i])
		wb = AppendCanonical(wb, &warm[i])
	}
	if !bytes.Equal(cb, wb) {
		t.Fatalf("canonical bytes diverged:\ncold:\n%s\nwarm:\n%s", cb, wb)
	}
	for i := range warm {
		if !warm[i].Reused {
			t.Fatalf("unit %s not served from store", warm[i].Name)
		}
		for _, r := range warm[i].Results {
			if r.DecidedBy != core.ByCache {
				t.Fatalf("store-served result reports %v", r.DecidedBy)
			}
		}
	}

	// Signature scoping: a different configuration must reject the snapshot
	// and must be rejected by SetStore.
	other := testOpts
	other.DirectionVectors = false
	if _, err := LoadStore(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("signature mismatch must be rejected by LoadStore")
	}
	d3 := NewDriver(other, 1)
	if err := d3.SetStore(loaded); err == nil {
		t.Fatal("signature mismatch must be rejected by SetStore")
	}
	if _, err := LoadStore(bytes.NewReader([]byte("junk")), testOpts); err == nil {
		t.Fatal("garbage input must error")
	}
}

// corruptStores returns the snapshot of memUnits' store and, per case, the
// snapshot with unit "a" edited the ways a truncated or tampered file can
// differ from what Save writes. Each edit is made to a freshly loaded copy
// of the unit, which Save then writes as it finds it; "fingerprint order"
// writes unit "a" twice, which no Save can.
func corruptStores(tb testing.TB) (clean []byte, cases map[string][]byte) {
	tb.Helper()
	units := memUnits(tb)
	d := NewDriver(testOpts, 1)
	if err := d.SetStore(NewStore(testOpts)); err != nil {
		tb.Fatal(err)
	}
	if _, err := d.RunAll(context.Background(), units); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Store().Save(&buf); err != nil {
		tb.Fatal(err)
	}
	clean = buf.Bytes()
	var f Fingerprinter
	fpA := f.Unit(units[0])

	// edit loads the clean snapshot, hands corrupt unit "a" and its first
	// result carrying a distance and a vector, and saves what it left.
	edit := func(corrupt func(su *StoredUnit, sr *StoredResult)) []byte {
		s, err := LoadStore(bytes.NewReader(clean), testOpts)
		if err != nil {
			tb.Fatal(err)
		}
		su, ok := s.Lookup(fpA)
		if !ok || su.Name != "a" {
			tb.Fatal("unit a is not in the store")
		}
		for j := range su.Results {
			if sr := &su.Results[j]; len(sr.DistLevel) > 0 && len(sr.Vectors) > 0 {
				corrupt(su, sr)
				var out bytes.Buffer
				if err := s.Save(&out); err != nil {
					tb.Fatal(err)
				}
				return out.Bytes()
			}
		}
		tb.Fatal("unit a has no result with a distance and a vector")
		return nil
	}
	cases = map[string][]byte{
		"short distance values": edit(func(_ *StoredUnit, sr *StoredResult) { sr.DistValue = sr.DistValue[:0] }),
		"outcome":               edit(func(_ *StoredUnit, sr *StoredResult) { sr.Outcome = int(dtest.Maybe) + 1 }),
		"kind":                  edit(func(_ *StoredUnit, sr *StoredResult) { sr.Kind = -1 }),
		"trip":                  edit(func(_ *StoredUnit, sr *StoredResult) { sr.Trip = dtest.NumTripReasons }),
		"direction":             edit(func(_ *StoredUnit, sr *StoredResult) { sr.Vectors[0][0] = 'x' }),
		"pair count":            edit(func(su *StoredUnit, _ *StoredResult) { su.Cost.Pairs++ }),
		"vector count":          edit(func(su *StoredUnit, _ *StoredResult) { su.Cost.Vectors-- }),
	}
	s, err := LoadStore(bytes.NewReader(clean), testOpts)
	if err != nil {
		tb.Fatal(err)
	}
	su, _ := s.Lookup(fpA)
	twice := persist.AppendHeader(nil, persist.StoreFile, s.Signature())
	twice = binary.AppendUvarint(twice, 2)
	twice = appendUnit(twice, fpA, su)
	cases["fingerprint order"] = appendUnit(twice, fpA, su)
	return clean, cases
}

// corruptIndexes returns the snapshot of memUnits' store with a file index
// entry for unit "a" and, per case, a snapshot whose index is broken the
// way a truncated or tampered file can break it, with the error each must
// raise. Save writes the index last, so the index cases replace the clean
// snapshot's empty index (its last byte, a zero count).
func corruptIndexes(tb testing.TB) (indexed []byte, cases map[string]struct {
	file []byte
	err  string
}) {
	tb.Helper()
	clean, _ := corruptStores(tb)
	units := memUnits(tb)
	var f Fingerprinter
	entry := func(name string) []byte {
		return appendFile(nil, name, &fileEntry{digest: sha256.Sum256([]byte(srcA)), fp: f.Unit(units[0]),
			pairs: len(units[0].Cands), warnings: []string{"w"}})
	}
	index := func(count uint64, entries ...[]byte) []byte {
		b := binary.AppendUvarint(bytes.Clone(clean[:len(clean)-1]), count)
		for _, e := range entries {
			b = append(b, e...)
		}
		return b
	}
	a := entry("a")
	indexed = index(1, a)
	// A name long enough that the count fits the bytes left when the
	// record is cut in its digest.
	long := strings.Repeat("x", minFileBytes)
	cut := entry(long)[:1+len(long)+sha256.Size/2]
	cases = map[string]struct {
		file []byte
		err  string
	}{
		"index name order":     {index(2, entry("b"), a), `file index entry "a": name not above the previous entry's "b"`},
		"index count":          {index(2, a), "exceeds what the"},
		"index digest cut":     {index(1, cut), `file index entry "` + long + `": input ends mid-record`},
		"index trailing bytes": {append(bytes.Clone(indexed), 0), "1 bytes of trailing input"},
	}
	return indexed, cases
}

// TestLoadStoreRejectsCorruptUnits: every corrupt snapshot fails LoadStore
// with an error naming the unit, or, in the file index, the entry and what
// is wrong with it. Serve indexes DistValue for every DistLevel, so an
// accepted unit with a short DistValue used to panic on its first store
// hit.
func TestLoadStoreRejectsCorruptUnits(t *testing.T) {
	units := memUnits(t)
	indexed, indexCases := corruptIndexes(t)
	if s, err := LoadStore(bytes.NewReader(indexed), testOpts); err != nil || len(s.files) != 1 {
		t.Fatalf("the snapshot with an index loads as %v", err)
	}
	for name, c := range indexCases {
		t.Run(name, func(t *testing.T) {
			_, err := LoadStore(bytes.NewReader(c.file), testOpts)
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Fatalf("LoadStore = %v, want an error containing %q", err, c.err)
			}
		})
	}
	_, cases := corruptStores(t)
	for name, file := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := LoadStore(bytes.NewReader(file), testOpts)
			if err == nil {
				// Serving the accepted unit is where a corrupt entry bites.
				d := NewDriver(testOpts, 1)
				if err := d.SetStore(s); err != nil {
					t.Fatal(err)
				}
				_, _ = d.RunAll(context.Background(), units)
				t.Fatal("corrupt snapshot accepted by LoadStore")
			}
			if !strings.Contains(err.Error(), `unit "a"`) {
				t.Fatalf("error does not name the unit: %v", err)
			}
		})
	}
}

// hugeCounts are snapshots that claim 2^40 of something in a few bytes:
// units in the header, or, in one unit's record, the name's length or one
// of the counts that size the unit's slabs (after zeroed fingerprint and
// cost fields). Zero padding keeps every count before the huge one
// within the bytes left.
func hugeCounts() map[string][]byte {
	const huge = 1 << 40
	head := persist.AppendHeader(nil, persist.StoreFile, Signature(testOpts))
	oneUnit := binary.AppendUvarint(bytes.Clone(head), 1)
	oneUnit = append(oneUnit, make([]byte, 16)...) // fingerprint
	name := append(binary.AppendUvarint(bytes.Clone(oneUnit), huge), make([]byte, 16)...)
	named := persist.AppendString(oneUnit, "a")
	// after claims huge at the count that follows zeros zero fields.
	after := func(zeros int) []byte {
		return binary.AppendUvarint(append(bytes.Clone(named), make([]byte, zeros)...), huge)
	}
	return map[string][]byte{
		"units":      binary.AppendUvarint(bytes.Clone(head), huge),
		"name":       name,
		"vectors":    after(5), // Pairs … Maybe are plain values
		"distances":  after(6),
		"directions": after(7),
		"results":    after(8),
	}
}

// TestLoadStoreRejectsHugeCounts: a count the bytes left cannot back is
// rejected before anything is sized by it.
func TestLoadStoreRejectsHugeCounts(t *testing.T) {
	for name, file := range hugeCounts() {
		t.Run(name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := LoadStore(bytes.NewReader(file), testOpts)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "exceeds") {
				t.Fatalf("LoadStore = %v, want a count error", err)
			}
			if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
				t.Fatalf("rejecting the count allocated %d bytes", n)
			}
		})
	}
}

// FuzzLoadStore: no input panics LoadStore, and a snapshot that loads
// saves to bytes that load back to the same snapshot.
func FuzzLoadStore(f *testing.F) {
	clean, cases := corruptStores(f)
	f.Add(clean)
	for _, b := range cases {
		f.Add(b)
	}
	indexed, indexCases := corruptIndexes(f)
	f.Add(indexed)
	for _, c := range indexCases {
		f.Add(c.file)
	}
	for _, b := range hugeCounts() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := LoadStore(bytes.NewReader(b), testOpts)
		if err != nil {
			return
		}
		var saved bytes.Buffer
		if err := s.Save(&saved); err != nil {
			t.Fatal(err)
		}
		again, err := LoadStore(bytes.NewReader(saved.Bytes()), testOpts)
		if err != nil {
			t.Fatalf("a loaded store saved to a snapshot that does not load: %v", err)
		}
		var resaved bytes.Buffer
		if err := again.Save(&resaved); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatal("a loaded store's snapshot does not load back equal")
		}
	})
}

// TestDriverIncremental: editing one unit re-solves exactly that unit, and
// the incremental results match a cold run of the edited corpus
// byte-for-byte.
func TestDriverIncremental(t *testing.T) {
	units := memUnits(t)
	d := NewDriver(testOpts, 1)
	if err := d.SetStore(NewStore(testOpts)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunAll(context.Background(), units); err != nil {
		t.Fatal(err)
	}

	// Edit unit 0: shift the write subscript.
	edited := make(Mem, len(units))
	copy(edited, units)
	eu, err := FromSource("a", "for i = 1 to 100\n  a[i+2] = a[i] + 3\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	edited[0] = eu

	warm, err := d.Canonical(context.Background(), edited)
	if err != nil {
		t.Fatal(err)
	}
	if d.Stats.UnitsSolved != 1 || d.Stats.UnitsReused != len(units)-1 {
		t.Fatalf("incremental stats: %+v", d.Stats)
	}

	coldDriver := NewDriver(testOpts, 1)
	cold, err := coldDriver.Canonical(context.Background(), edited)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatalf("incremental output diverged from cold run:\nwarm:\n%s\ncold:\n%s", warm, cold)
	}
}

// TestDriverNeverStoresCancelled: results degraded by cancellation must not
// enter the store.
func TestDriverNeverStoresCancelled(t *testing.T) {
	units := memUnits(t)
	d := NewDriver(testOpts, 1)
	if err := d.SetStore(NewStore(testOpts)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	urs, err := d.RunAll(ctx, units)
	if err != nil {
		t.Fatal(err)
	}
	for _, ur := range urs {
		for _, r := range ur.Results {
			if r.Trip != dtest.TripCancelled {
				t.Fatalf("expected cancelled results, got %+v", r)
			}
		}
	}
	if d.Store().Len() != 0 {
		t.Fatalf("cancelled results entered the store: %d units", d.Store().Len())
	}
}

// TestFingerprintCollisionGuard: a stored unit whose pair count disagrees
// with the current candidates is treated as a miss, not served stale.
func TestFingerprintCollisionGuard(t *testing.T) {
	units := memUnits(t)
	var f Fingerprinter
	fp := f.Unit(units[0])
	s := NewStore(testOpts)
	s.Put(fp, StoredUnit{Name: "bogus", Results: make([]StoredResult, len(units[0].Cands)+1)})
	d := NewDriver(testOpts, 1)
	if err := d.SetStore(s); err != nil {
		t.Fatal(err)
	}
	urs, err := d.RunAll(context.Background(), units[:1])
	if err != nil {
		t.Fatal(err)
	}
	if urs[0].Reused {
		t.Fatal("mismatched stored unit was served")
	}
	if d.Stats.UnitsSolved != 1 {
		t.Fatalf("stats: %+v", d.Stats)
	}
}

func TestFingerprintString(t *testing.T) {
	fp := memo.Fingerprint{Hi: 0xabc, Lo: 1}
	if got, want := fp.String(), "0000000000000abc0000000000000001"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if !(memo.Fingerprint{}).IsZero() || fp.IsZero() {
		t.Fatal("IsZero misreports")
	}
}
