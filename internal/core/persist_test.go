package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"

	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
	"exactdep/internal/lang"
	"exactdep/internal/memo"
	"exactdep/internal/opt"
	"exactdep/internal/persist"
	"exactdep/internal/system"
)

const persistSrc = `
for i = 1 to 10
  a[i+1] = a[i]
end
for i = 1 to 10
  b[2*i] = b[2*i+1]
end
for i = 1 to 10
  c[i] = c[i+20]
end
`

func TestSaveLoadMemoRoundTrip(t *testing.T) {
	opts := Options{Memoize: true, ImprovedMemo: true,
		DirectionVectors: true, PruneUnused: true, PruneDistance: true}
	prog, err := lang.Parse(persistSrc)
	if err != nil {
		t.Fatal(err)
	}
	unit := opt.Lower(prog)

	warm := New(opts)
	firstRun, err := warm.AnalyzeUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.TotalTests() == 0 {
		t.Fatal("premise: fresh run must run tests")
	}

	var buf bytes.Buffer
	if err := warm.SaveMemo(&buf); err != nil {
		t.Fatal(err)
	}

	cold := New(opts)
	if err := cold.LoadMemo(&buf); err != nil {
		t.Fatal(err)
	}
	secondRun, err := cold.AnalyzeUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	// Every problem must now come from the cache (or the persisted GCD
	// table): zero fresh tests.
	if cold.Stats.TotalTests() != 0 {
		t.Fatalf("warm-started analyzer ran %d tests, want 0", cold.Stats.TotalTests())
	}
	if len(firstRun) != len(secondRun) {
		t.Fatalf("result count mismatch: %d vs %d", len(firstRun), len(secondRun))
	}
	for i := range firstRun {
		f, s := firstRun[i], secondRun[i]
		if f.Outcome != s.Outcome || f.Exact != s.Exact {
			t.Fatalf("result %d diverged: %+v vs %+v", i, f, s)
		}
		if len(f.Vectors) != len(s.Vectors) {
			t.Fatalf("result %d vectors diverged: %v vs %v", i, f.Vectors, s.Vectors)
		}
		for vi := range f.Vectors {
			if f.Vectors[vi].String() != s.Vectors[vi].String() {
				t.Fatalf("result %d vector %d: %v vs %v", i, vi, f.Vectors[vi], s.Vectors[vi])
			}
		}
	}
}

// warmMemo returns an analyzer that has analyzed persistSrc under opts,
// and its saved memo file.
func warmMemo(tb testing.TB, opts Options) (*Analyzer, []byte) {
	tb.Helper()
	prog, err := lang.Parse(persistSrc)
	if err != nil {
		tb.Fatal(err)
	}
	warm := New(opts)
	if _, err := warm.AnalyzeUnit(opt.Lower(prog)); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := warm.SaveMemo(&buf); err != nil {
		tb.Fatal(err)
	}
	return warm, buf.Bytes()
}

var persistOpts = Options{Memoize: true, ImprovedMemo: true,
	DirectionVectors: true, PruneUnused: true, PruneDistance: true}

// corruptMemos returns persistOpts' memo file for persistSrc and, per
// case, the file with one entry edited the ways a truncated or tampered
// file can differ from what SaveMemo writes, each paired with the table
// the error must name. A case re-encodes its entry and splices it over the
// entry's saved bytes.
func corruptMemos(tb testing.TB) (clean []byte, cases map[string]corruptMemo) {
	tb.Helper()
	warm, clean := warmMemo(tb, persistOpts)
	var key memo.Key
	var verdict persist.Verdict
	warm.full.Range(func(k memo.Key, c cached) bool {
		if len(c.projDistances) == 0 || len(c.projVectors) == 0 {
			return true
		}
		key = k
		verdict = persist.Verdict{Outcome: int(c.res.Outcome), Exact: c.res.Exact, Kind: int(c.res.Kind), Vectors: c.projVectors}
		for _, d := range c.projDistances {
			verdict.DistLevel = append(verdict.DistLevel, d.Level)
			verdict.DistValue = append(verdict.DistValue, d.Value)
		}
		return false
	})
	if key == nil {
		tb.Fatal("premise: no full entry with a distance and a vector")
	}
	var eqKey memo.Key
	var eqResult system.GCDResult
	warm.eq.Range(func(k memo.Key, r system.GCDResult) bool {
		eqKey, eqResult = k, r
		return false
	})
	if eqKey == nil {
		tb.Fatal("premise: the saved tables need eq entries")
	}
	splice := func(old, new []byte) []byte {
		if bytes.Count(clean, old) != 1 {
			tb.Fatal("premise: the entry's bytes are not unique in the file")
		}
		return bytes.Replace(clean, old, new, 1)
	}
	full := func(corrupt func(v *persist.Verdict)) []byte {
		v := verdict
		v.Vectors = make([][]depvec.Direction, len(verdict.Vectors))
		for i, vec := range verdict.Vectors {
			v.Vectors[i] = slices.Clone(vec)
		}
		v.DistLevel, v.DistValue = slices.Clone(verdict.DistLevel), slices.Clone(verdict.DistValue)
		corrupt(&v)
		return splice(appendFull(nil, key, &verdict), appendFull(nil, key, &v))
	}
	cases = map[string]corruptMemo{
		"two levels one value": {"full entry", full(func(v *persist.Verdict) { v.DistLevel, v.DistValue = []int{1, 2}, v.DistValue[:1] })},
		"outcome":              {"full entry", full(func(v *persist.Verdict) { v.Outcome = int(dtest.Maybe) + 1 })},
		"degraded":             {"full entry", full(func(v *persist.Verdict) { v.Outcome = int(dtest.Maybe) })},
		"kind":                 {"full entry", full(func(v *persist.Verdict) { v.Kind = -1 })},
		"direction":            {"full entry", full(func(v *persist.Verdict) { v.Vectors[0][0] = 'x' })},
		"gcd result":           {"eq entry", splice(appendEq(nil, eqKey, eqResult), appendEq(nil, eqKey, 2))},
	}
	return clean, cases
}

type corruptMemo struct {
	entry string
	file  []byte
}

// TestLoadMemoRejectsCorruptEntries: every corrupt memo file fails LoadMemo
// with an error naming the entry's table, and merges nothing. LoadMemo
// indexes DistValue for every DistLevel, so a short DistValue used to
// panic.
func TestLoadMemoRejectsCorruptEntries(t *testing.T) {
	_, cases := corruptMemos(t)
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			cold := New(persistOpts)
			err := cold.LoadMemo(bytes.NewReader(c.file))
			if err == nil {
				t.Fatal("corrupt memo table accepted by LoadMemo")
			}
			if !strings.Contains(err.Error(), c.entry) {
				t.Fatalf("error does not name the %s: %v", c.entry, err)
			}
			if n := cold.MemoLen(); n != 0 {
				t.Fatalf("rejected memo table merged %d entries", n)
			}
		})
	}
}

// restampMemo returns memo file b with the versions in its header
// replaced.
func restampMemo(b []byte, format, semantics uint64) []byte {
	scheme := keyScheme(true)
	out := binary.AppendUvarint([]byte(persist.MemoFile.Magic), format)
	out = binary.AppendUvarint(out, semantics)
	out = persist.AppendString(out, scheme)
	return append(out, b[len(persist.AppendHeader(nil, persist.MemoFile, scheme)):]...)
}

// TestLoadMemoStaleVersion: a memo file written under an older format or
// semantics version fails with persist.ErrStale, merging nothing, so a
// caller can start cold.
func TestLoadMemoStaleVersion(t *testing.T) {
	_, saved := warmMemo(t, persistOpts)
	for _, file := range [][]byte{
		restampMemo(saved, persist.FormatVersion-1, persist.SemanticsVersion),
		restampMemo(saved, persist.FormatVersion, persist.SemanticsVersion-1),
	} {
		cold := New(persistOpts)
		if err := cold.LoadMemo(bytes.NewReader(file)); !errors.Is(err, persist.ErrStale) {
			t.Fatalf("LoadMemo of a stale file = %v, want persist.ErrStale", err)
		}
		if n := cold.MemoLen(); n != 0 {
			t.Fatalf("stale memo file merged %d entries", n)
		}
	}
}

// TestLoadMemoNewerVersion: a memo file from a newer build is an error,
// not stale.
func TestLoadMemoNewerVersion(t *testing.T) {
	_, saved := warmMemo(t, persistOpts)
	for _, file := range [][]byte{
		restampMemo(saved, persist.FormatVersion+1, persist.SemanticsVersion),
		restampMemo(saved, persist.FormatVersion, persist.SemanticsVersion+1),
	} {
		if err := New(persistOpts).LoadMemo(bytes.NewReader(file)); err == nil || errors.Is(err, persist.ErrStale) {
			t.Fatalf("LoadMemo of a newer file = %v, want a non-stale error", err)
		}
	}
}

// FuzzLoadMemo: no input panics LoadMemo, and a memo file that loads saves
// to one that loads back to as many entries.
func FuzzLoadMemo(f *testing.F) {
	clean, cases := corruptMemos(f)
	f.Add(clean)
	for _, c := range cases {
		f.Add(c.file)
	}
	huge := persist.AppendHeader(nil, persist.MemoFile, keyScheme(true))
	f.Add(binary.AppendUvarint(huge, 1<<40))
	f.Fuzz(func(t *testing.T, b []byte) {
		a := New(persistOpts)
		if a.LoadMemo(bytes.NewReader(b)) != nil {
			return
		}
		var saved bytes.Buffer
		if err := a.SaveMemo(&saved); err != nil {
			t.Fatal(err)
		}
		again := New(persistOpts)
		if err := again.LoadMemo(&saved); err != nil {
			t.Fatalf("a loaded memo table saved to a file that does not load: %v", err)
		}
		if again.MemoLen() != a.MemoLen() {
			t.Fatalf("reloaded %d entries, saved %d", again.MemoLen(), a.MemoLen())
		}
	})
}

func TestLoadMemoSchemeMismatch(t *testing.T) {
	warm := New(Options{Memoize: true, ImprovedMemo: true})
	var buf bytes.Buffer
	if err := warm.SaveMemo(&buf); err != nil {
		t.Fatal(err)
	}
	cold := New(Options{Memoize: true}) // simple keys
	if err := cold.LoadMemo(&buf); err == nil {
		t.Fatal("scheme mismatch must be rejected")
	}
}

func TestLoadMemoGarbage(t *testing.T) {
	a := New(Options{Memoize: true})
	if err := a.LoadMemo(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Fatal("garbage input must error")
	}
}

func TestPersistedGCDVerdicts(t *testing.T) {
	opts := Options{Memoize: true}
	prog, err := lang.Parse("for i = 1 to 10\n  a[2*i] = a[2*i+1]\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	unit := opt.Lower(prog)
	warm := New(opts)
	if _, err := warm.AnalyzeUnit(unit); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := warm.SaveMemo(&buf); err != nil {
		t.Fatal(err)
	}
	cold := New(opts)
	if err := cold.LoadMemo(&buf); err != nil {
		t.Fatal(err)
	}
	res, err := cold.AnalyzeUnit(unit)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Pair.A.Ref.Kind != r.Pair.B.Ref.Kind && r.Outcome != dtest.Independent {
			t.Fatalf("persisted GCD verdict lost: %+v", r)
		}
	}
}
