package corpus

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"exactdep/internal/core"
	"exactdep/internal/dtest"
	"exactdep/internal/memo"
)

var testOpts = core.Options{
	Memoize: true, ImprovedMemo: true,
	DirectionVectors: true, PruneUnused: true, PruneDistance: true,
}

const srcA = "for i = 1 to 100\n  a[i+1] = a[i] + 3\nend\n"
const srcB = "for i = 1 to 50\n  b[2*i] = b[2*i+1] + 1\nend\n"

func memUnits(t *testing.T) Mem {
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
			for v := range s[0].Terms {
				s[0].Terms[v]++
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

// TestLoadStoreRejectsCorruptUnits hand-edits a saved snapshot the ways a
// truncated or tampered file can differ from what Save writes. Serve
// indexes DistValue for every DistLevel, so an accepted unit with a short
// DistValue used to panic on its first store hit; every edit must instead
// fail LoadStore with an error naming the unit.
func TestLoadStoreRejectsCorruptUnits(t *testing.T) {
	units := memUnits(t)
	d := NewDriver(testOpts, 1)
	if err := d.SetStore(NewStore(testOpts)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RunAll(context.Background(), units); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Store().Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	// edit returns the result of unit "a" that carries a distance, the
	// one every edit below corrupts.
	edit := func(doc *savedStore) (*StoredUnit, *StoredResult) {
		for i := range doc.Units {
			su := &doc.Units[i].Unit
			if su.Name != "a" {
				continue
			}
			for j := range su.Results {
				if len(su.Results[j].DistLevel) > 0 && len(su.Results[j].Vectors) > 0 {
					return su, &su.Results[j]
				}
			}
		}
		t.Fatal("unit a has no result with a distance and a vector")
		return nil, nil
	}
	cases := map[string]func(su *StoredUnit, sr *StoredResult){
		"short distance values": func(_ *StoredUnit, sr *StoredResult) { sr.DistValue = sr.DistValue[:0] },
		"outcome":               func(_ *StoredUnit, sr *StoredResult) { sr.Outcome = int(dtest.Maybe) + 1 },
		"kind":                  func(_ *StoredUnit, sr *StoredResult) { sr.Kind = -1 },
		"trip":                  func(_ *StoredUnit, sr *StoredResult) { sr.Trip = dtest.NumTripReasons },
		"direction":             func(_ *StoredUnit, sr *StoredResult) { sr.Vectors[0][0] = 'x' },
		"pair count":            func(su *StoredUnit, _ *StoredResult) { su.Cost.Pairs++ },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			var doc savedStore
			if err := gob.NewDecoder(bytes.NewReader(saved)).Decode(&doc); err != nil {
				t.Fatal(err)
			}
			corrupt(edit(&doc))
			var out bytes.Buffer
			if err := gob.NewEncoder(&out).Encode(&doc); err != nil {
				t.Fatal(err)
			}
			s, err := LoadStore(&out, testOpts)
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
