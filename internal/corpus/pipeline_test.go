package corpus

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"exactdep/internal/core"
)

// pipelineSrc renders the i-th synthetic test file: constants vary so
// fingerprints differ, and every few files get a second nest so unit pair
// counts are not uniform.
func pipelineSrc(i int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "for i = 1 to %d\n  a[i+%d] = a[i] + 1\nend\n", 40+i, 1+i%5)
	if i%3 == 0 {
		fmt.Fprintf(&b, "for j = 1 to %d\n  b[2*j] = b[2*j+%d]\nend\n", 30+i, 1+i%4)
	}
	return b.String()
}

// pipelineDir writes n generated files (some nested in subdirectories) and
// returns the root plus the sorted relative names Dir must report.
func pipelineDir(t *testing.T, n int) (string, []string) {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rel := fmt.Sprintf("u%02d.loop", i)
		if i%4 == 1 {
			rel = filepath.Join("sub", rel)
		}
		if err := os.WriteFile(filepath.Join(root, rel), []byte(pipelineSrc(i)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	items, err := Dir(root).(Lister).List()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = it.Name
	}
	return root, names
}

// TestParallelLoadDeterministic is the race-mode hammer over the parallel
// sources: Dir and Files loading must yield byte-identical unit order and
// content at every worker count (the pool fills a pre-sized slice in a
// fixed order), repeatedly, against a serial FromSource reference.
func TestParallelLoadDeterministic(t *testing.T) {
	const n = 24
	root, names := pipelineDir(t, n)

	// Serial reference: read + parse each listed file on this goroutine.
	items, err := Dir(root).(Lister).List()
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]Unit, len(items))
	for i := range items {
		b, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(items[i].Name)))
		if err != nil {
			t.Fatal(err)
		}
		u, err := FromSource(items[i].Name, string(b))
		if err != nil {
			t.Fatal(err)
		}
		ref[i] = u
	}

	var f Fingerprinter
	refFP := make([]string, len(ref))
	for i := range ref {
		refFP[i] = f.Unit(ref[i]).String()
	}

	for iter := 0; iter < 8; iter++ {
		units, err := Dir(root).Units()
		if err != nil {
			t.Fatal(err)
		}
		if len(units) != n {
			t.Fatalf("iter %d: %d units, want %d", iter, len(units), n)
		}
		for i := range units {
			if units[i].Name != names[i] {
				t.Fatalf("iter %d: unit %d named %q, want %q", iter, i, units[i].Name, names[i])
			}
			if got := f.Unit(units[i]).String(); got != refFP[i] {
				t.Fatalf("iter %d: unit %q parsed differently under the pool", iter, units[i].Name)
			}
		}
	}

	// Files over an explicit (deliberately unsorted) path list keeps the
	// given order.
	paths := make([]string, 0, len(names))
	for i := len(names) - 1; i >= 0; i-- {
		paths = append(paths, filepath.Join(root, filepath.FromSlash(names[i])))
	}
	fu, err := Files(paths...).Units()
	if err != nil {
		t.Fatal(err)
	}
	for i := range fu {
		if fu[i].Name != paths[i] {
			t.Fatalf("Files unit %d named %q, want %q", i, fu[i].Name, paths[i])
		}
	}
}

// TestParallelLoadErrorPath: one unparsable file must surface the same
// error the serial loop stops on — the lowest-index failure — from both the
// parallel Units() and the pipelined driver, at every worker count, and no
// loader goroutine may outlive the call.
func TestParallelLoadErrorPath(t *testing.T) {
	const n = 16
	root, names := pipelineDir(t, n)
	// Corrupt two files; the earlier one (in sorted order) must win.
	badEarly, badLate := names[3], names[11]
	for _, rel := range []string{badLate, badEarly} {
		if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(rel)), []byte("for i = 1 to\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Serial reference error.
	_, refErr := FromSource(badEarly, "for i = 1 to\n")
	if refErr == nil {
		t.Fatal("corrupt source parsed")
	}

	before := runtime.NumGoroutine()
	if _, err := Dir(root).Units(); err == nil || err.Error() != refErr.Error() {
		t.Fatalf("parallel Units() error = %v, want %v", err, refErr)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		d := NewDriver(testOpts, workers)
		emitted := 0
		err := d.Run(context.Background(), Dir(root), func(UnitResult) error {
			emitted++
			return nil
		})
		if err == nil || err.Error() != refErr.Error() {
			t.Fatalf("workers=%d: driver error = %v, want %v", workers, err, refErr)
		}
		// The pipelined run may stream results for units preceding the
		// failure, but never past it.
		if emitted > 3 {
			t.Fatalf("workers=%d: %d units emitted past the failing index", workers, emitted)
		}
	}
	// Every pool joins before returning: goroutine count settles back.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("loader goroutines leaked: %d before, %d after", before, got)
	}
}

// canonicalOracle renders a source's units without the driver: one
// analyzer's AnalyzeCandidate over each unit's candidates in order, each
// unit rendered with AppendCanonical. It also returns the cold Stats
// the unit list implies: every unit and pair solved, nothing served.
func canonicalOracle(t *testing.T, src Source) ([]byte, Stats) {
	t.Helper()
	units, err := src.Units()
	if err != nil {
		t.Fatal(err)
	}
	a := core.New(testOpts)
	var buf []byte
	st := Stats{Units: len(units), UnitsSolved: len(units)}
	for _, u := range units {
		ur := UnitResult{Name: u.Name}
		for _, c := range u.Cands {
			r, err := a.AnalyzeCandidate(c)
			if err != nil {
				t.Fatal(err)
			}
			ur.Results = append(ur.Results, r)
		}
		buf = AppendCanonical(buf, &ur)
		st.PairsSolved += len(u.Cands)
	}
	return buf, st
}

// TestPipelineCanonicalIdentity is the byte-identity acceptance check of
// the driver: cold and warm canonical bytes at workers 1/2/4/8 — from Dir,
// Files, and Mem sources alike — must equal a per-candidate analyzer
// loop's, with the unit/pair counters the unit list implies and unchanged
// store traffic on the warm run, which serves Dir and Files through the
// store's file index.
func TestPipelineCanonicalIdentity(t *testing.T) {
	const n = 30
	root, names := pipelineDir(t, n)
	paths := make([]string, len(names))
	for i, rel := range names {
		paths[i] = filepath.Join(root, filepath.FromSlash(rel))
	}
	memUnits, err := Dir(root).Units()
	if err != nil {
		t.Fatal(err)
	}

	sources := map[string]Source{
		"dir":   Dir(root),
		"files": Files(paths...),
		"mem":   Mem(memUnits),
	}

	for name, src := range sources {
		want, wantStats := canonicalOracle(t, src)

		for _, workers := range []int{1, 2, 4, 8} {
			// Cold, filling a store.
			d := NewDriver(testOpts, workers)
			if err := d.SetStore(NewStore(testOpts)); err != nil {
				t.Fatal(err)
			}
			got, err := d.Canonical(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s workers=%d: cold canonical bytes diverged from the oracle", name, workers)
			}
			cs := d.Stats
			cs.Stage = StageTimes{}
			if cs != wantStats {
				t.Fatalf("%s workers=%d: cold stats %+v, want %+v", name, workers, cs, wantStats)
			}
			if d.Store().Len() == 0 {
				t.Fatalf("%s workers=%d: cold run stored nothing", name, workers)
			}
			storeLen := d.Store().Len()

			// Warm over the filled store: everything served, same bytes.
			warm, err := d.Canonical(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(warm, want) {
				t.Fatalf("%s workers=%d: warm canonical bytes diverged", name, workers)
			}
			if d.Stats.UnitsReused != n || d.Stats.UnitsSolved != 0 {
				t.Fatalf("%s workers=%d: warm stats %+v", name, workers, d.Stats)
			}
			// Listed files are served through the file index, unparsed.
			if _, listed := src.(Lister); listed != (d.Stats.UnitsIndexed == n) {
				t.Fatalf("%s workers=%d: warm run served %d units through the file index", name, workers, d.Stats.UnitsIndexed)
			}
			if d.Store().Len() != storeLen {
				t.Fatalf("%s workers=%d: warm run changed store traffic (%d -> %d entries)",
					name, workers, storeLen, d.Store().Len())
			}
		}
	}
}

// TestOneWorkerRunsInline: a one-worker Run starts no goroutine. A warm run
// over an in-memory corpus with a store attached still runs the front end
// for every unit — here a fresh fingerprint walk plus a store probe, since
// the warm units are new values — so the first emit would see a pool still
// working through the later units. A pool can also finish before the
// solver is scheduled, so the warm run is repeated.
func TestOneWorkerRunsInline(t *testing.T) {
	units := make(Mem, 512)
	for i := range units {
		u, err := FromSource(fmt.Sprintf("u%03d", i), pipelineSrc(i))
		if err != nil {
			t.Fatal(err)
		}
		units[i] = u
	}
	d := NewDriver(testOpts, 1)
	if err := d.SetStore(NewStore(testOpts)); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background(), units, nil); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		warm := make(Mem, len(units))
		for i, u := range units {
			warm[i] = Unit{Name: u.Name, Cands: u.Cands, Warnings: u.Warnings}
		}
		before := runtime.NumGoroutine()
		during := -1
		if err := d.Run(context.Background(), warm, func(UnitResult) error {
			if during < 0 {
				during = runtime.NumGoroutine()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if d.Stats.UnitsReused != len(units) {
			t.Fatalf("warm run reused %d of %d units", d.Stats.UnitsReused, len(units))
		}
		if during != before {
			t.Fatalf("round %d: goroutines during the one-worker run: %d, before it: %d", round, during, before)
		}
	}
}

// TestPipelineStreamsInOrder pins the ordered-emit contract: results arrive
// in corpus order, and an emit rejection aborts the run with that error.
func TestPipelineStreamsInOrder(t *testing.T) {
	root, names := pipelineDir(t, 20)
	d := NewDriver(testOpts, 4)
	var got []string
	if err := d.Run(context.Background(), Dir(root), func(ur UnitResult) error {
		got = append(got, ur.Name)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(names) {
		t.Fatalf("emitted %d units, want %d", len(got), len(names))
	}
	for i := range got {
		if got[i] != names[i] {
			t.Fatalf("emit %d was %q, want %q (out of corpus order)", i, got[i], names[i])
		}
	}

	rejected := fmt.Errorf("stop here")
	seen := 0
	err := d.Run(context.Background(), Dir(root), func(UnitResult) error {
		seen++
		if seen == 3 {
			return rejected
		}
		return nil
	})
	if err != rejected {
		t.Fatalf("emit rejection returned %v, want %v", err, rejected)
	}
	if seen != 3 {
		t.Fatalf("emit called %d times after rejection, want exactly 3", seen)
	}
}

// TestFingerprintWithoutStore pins the satellite fix: UnitResult.Fingerprint
// is the unit's real digest even when no store is attached, at every worker
// count.
func TestFingerprintWithoutStore(t *testing.T) {
	units := memUnits(t)
	var f Fingerprinter
	want := make([]string, len(units))
	for i := range units {
		want[i] = f.Unit(units[i]).String()
	}
	for _, workers := range []int{1, 4} {
		d := NewDriver(testOpts, workers)
		urs, err := d.RunAll(context.Background(), units)
		if err != nil {
			t.Fatal(err)
		}
		for i, ur := range urs {
			if ur.Fingerprint.IsZero() {
				t.Fatalf("workers=%d: unit %s has a zero fingerprint without a store", workers, ur.Name)
			}
			if ur.Fingerprint.String() != want[i] {
				t.Fatalf("workers=%d: unit %s fingerprint %s, want %s",
					workers, ur.Name, ur.Fingerprint, want[i])
			}
		}
	}
}

// TestStageTimes: with TimeStages set, a store-backed file run populates
// every pipeline stage; with it off (the default) only Wall is measured.
func TestStageTimes(t *testing.T) {
	root, _ := pipelineDir(t, 12)
	for _, workers := range []int{1, 4} {
		d := NewDriver(testOpts, workers)
		if err := d.SetStore(NewStore(testOpts)); err != nil {
			t.Fatal(err)
		}
		d.TimeStages = true
		if _, err := d.RunAll(context.Background(), Dir(root)); err != nil {
			t.Fatal(err)
		}
		st := d.Stats.Stage
		if st.Load <= 0 || st.Fingerprint <= 0 || st.Probe <= 0 || st.Solve <= 0 || st.Emit <= 0 || st.Wall <= 0 {
			t.Fatalf("workers=%d: cold stage times not all populated: %+v", workers, st)
		}
		// Warm run: everything served, so Solve stays zero.
		if _, err := d.RunAll(context.Background(), Dir(root)); err != nil {
			t.Fatal(err)
		}
		if st := d.Stats.Stage; st.Solve != 0 || st.Probe <= 0 {
			t.Fatalf("workers=%d: warm stage times: %+v", workers, st)
		}

		d2 := NewDriver(testOpts, workers)
		if _, err := d2.RunAll(context.Background(), Dir(root)); err != nil {
			t.Fatal(err)
		}
		if st := d2.Stats.Stage; st.Load != 0 || st.Fingerprint != 0 || st.Probe != 0 || st.Solve != 0 || st.Emit != 0 {
			t.Fatalf("workers=%d: stage accounting ran without TimeStages: %+v", workers, st)
		}
		if d2.Stats.Stage.Wall <= 0 {
			t.Fatal("Wall must always be measured")
		}
	}
}

// sleepyList is a Lister whose items load slowly, so the solver waits on
// the front end.
type sleepyList struct {
	units Mem
	delay time.Duration
}

func (s sleepyList) Units() ([]Unit, error) { return s.units, nil }

func (s sleepyList) List() ([]Item, error) {
	items := make([]Item, len(s.units))
	for i := range s.units {
		u := s.units[i]
		items[i] = Item{Name: u.Name, Load: func() (Unit, error) {
			time.Sleep(s.delay)
			return u, nil
		}}
	}
	return items, nil
}

// TestStageWait: with TimeStages set, the solver's time blocked on a slow
// front end is booked as Wait, which is positive and at most Wall; without
// it Wait stays zero.
func TestStageWait(t *testing.T) {
	units := make(Mem, 8)
	for i := range units {
		u, err := FromSource(fmt.Sprintf("u%d", i), pipelineSrc(i))
		if err != nil {
			t.Fatal(err)
		}
		units[i] = u
	}
	src := sleepyList{units: units, delay: 5 * time.Millisecond}
	for _, workers := range []int{1, 2} {
		for _, timed := range []bool{true, false} {
			d := NewDriver(testOpts, workers)
			d.TimeStages = timed
			if _, err := d.RunAll(context.Background(), src); err != nil {
				t.Fatal(err)
			}
			st := d.Stats.Stage
			if !timed {
				if st.Wait != 0 {
					t.Fatalf("workers=%d: Wait %v measured without TimeStages", workers, st.Wait)
				}
				continue
			}
			if st.Wait <= 0 || st.Wait > st.Wall {
				t.Fatalf("workers=%d: Wait %v, want in (0, Wall %v]", workers, st.Wait, st.Wall)
			}
		}
	}
}
