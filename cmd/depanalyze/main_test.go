package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"exactdep/internal/persist"
	"exactdep/internal/wire"
)

// writeLoop drops a source file into a temp dir and returns its path.
func writeLoop(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.loop")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const simpleSrc = `
for i = 1 to 100
  a[i+1] = a[i] + 3
end
`

// fmHardSrc lands in Fourier–Motzkin: chain-coupled bounds defeat every
// cheap test, so tiny budgets visibly trip.
const fmHardSrc = `
for i1 = 1 to 20
  for i2 = 2*i1 to 2*i1+3
    for i3 = 2*i2 to 2*i2+3
      for i4 = 2*i3 to 2*i3+3
        h[i4+1] = h[i4]
      end
    end
  end
end
`

// verdictPrefixes keeps each per-pair line's "A vs B: outcome" prefix —
// the part that must agree across worker counts and cascades (the deciding
// test in the brackets legitimately differs under fm-only).
func verdictPrefixes(out string) string {
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if line == "" {
			break
		}
		if i := strings.Index(line, "  ["); i >= 0 {
			line = line[:i]
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFlagMatrix: -workers, -cascade, and -memostats must compose — every
// combination runs cleanly and the verdict lines agree across all of them.
func TestFlagMatrix(t *testing.T) {
	path := writeLoop(t, simpleSrc)
	var wantVerdicts string
	for _, workers := range []string{"1", "4"} {
		for _, cascade := range []string{"full", "fm-only"} {
			for _, memostats := range []bool{false, true} {
				args := []string{"-workers=" + workers, "-cascade=" + cascade}
				if memostats {
					args = append(args, "-memostats")
				}
				args = append(args, path)
				var out, errb bytes.Buffer
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("%v: exit %d, stderr %q", args, code, errb.String())
				}
				verdicts := verdictPrefixes(out.String())
				if wantVerdicts == "" {
					wantVerdicts = verdicts
				} else if verdicts != wantVerdicts {
					t.Errorf("%v: verdicts differ from first combination:\n%s\nvs\n%s",
						args, verdicts, wantVerdicts)
				}
				if memostats && !strings.Contains(out.String(), "memo hierarchy:") {
					t.Errorf("%v: -memostats printed no memo hierarchy", args)
				}
				if memostats && !strings.Contains(out.String(), "degraded:") {
					t.Errorf("%v: -memostats printed no degraded-entries line", args)
				}
			}
		}
	}
}

// TestExitCodes pins the contract: 2 for usage errors (bad flag, bad value,
// unknown cascade, negative budget, missing arg), 1 for runtime errors
// (unreadable file, source syntax error), 0 for success.
func TestExitCodes(t *testing.T) {
	good := writeLoop(t, simpleSrc)
	bad := writeLoop(t, "for i = 1 to\n")
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"ok", []string{good}, 0},
		{"no args", []string{}, 2},
		{"unknown flag", []string{"-definitely-not-a-flag", good}, 2},
		{"malformed value", []string{"-workers=banana", good}, 2},
		{"unknown cascade", []string{"-cascade=bogus", good}, 2},
		{"negative budget", []string{"-budget-fm=-1", good}, 2},
		{"missing file", []string{filepath.Join(t.TempDir(), "nope.loop")}, 1},
		{"syntax error", []string{bad}, 1},
		{"cpuprofile missing value", []string{"-cpuprofile"}, 2},
		{"memprofile missing value", []string{"-memprofile"}, 2},
		{"cpuprofile bad path", []string{"-cpuprofile", filepath.Join(t.TempDir(), "no", "dir", "cpu.prof"), good}, 1},
		{"memprofile bad path", []string{"-memprofile", filepath.Join(t.TempDir(), "no", "dir", "mem.prof"), good}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(c.args, &out, &errb); code != c.want {
				t.Fatalf("exit %d, want %d (stderr %q)", code, c.want, errb.String())
			}
		})
	}
}

// TestBudgetFlagDegrades: a starvation elimination budget on an FM-hard nest
// renders 'maybe (assumed: ... budget)' verdicts and the -stats degradation
// line, still exiting 0 — degradation is graceful, not an error.
func TestBudgetFlagDegrades(t *testing.T) {
	path := writeLoop(t, fmHardSrc)
	var out, errb bytes.Buffer
	code := run([]string{"-budget-fm=2", "-stats", "-workers=1", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "maybe (assumed: fm-eliminations budget)") {
		t.Errorf("no degraded verdict rendered:\n%s", s)
	}
	if !strings.Contains(s, "budget trips") {
		t.Errorf("-stats printed no budget-trip line:\n%s", s)
	}
}

// TestBudgetFlagGenerous: the same nest under a generous budget stays exact
// and reports no degradation.
func TestBudgetFlagGenerous(t *testing.T) {
	path := writeLoop(t, fmHardSrc)
	var out, errb bytes.Buffer
	code := run([]string{"-budget-fm=1000000", "-stats", "-workers=1", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	s := out.String()
	if strings.Contains(s, "(assumed") || strings.Contains(s, "budget trips") ||
		!strings.Contains(s, "0 maybe") {
		t.Errorf("generous budget degraded:\n%s", s)
	}
}

// corpusDir lays out a two-file corpus tree and returns its root.
func corpusDir(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(rel, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, rel), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.loop", simpleSrc)
	write(filepath.Join("sub", "b.loop"), "for i = 1 to 50\n  b[2*i] = b[2*i+1] + 1\nend\n")
	return root
}

// TestCorpusMode: a directory argument analyzes every *.loop as one corpus,
// a unit header per file in sorted order; multiple file args do the same.
func TestCorpusMode(t *testing.T) {
	root := corpusDir(t)
	var out, errb bytes.Buffer
	if code := run([]string{"-memo", "-stats", root}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "== a.loop ==") || !strings.Contains(s, "== sub/b.loop ==") {
		t.Fatalf("missing unit headers:\n%s", s)
	}
	if strings.Index(s, "== a.loop ==") > strings.Index(s, "== sub/b.loop ==") {
		t.Fatalf("units out of sorted order:\n%s", s)
	}
	if !strings.Contains(s, "corpus: 2 units (0 reused, 2 solved)") {
		t.Fatalf("missing corpus stats:\n%s", s)
	}

	out.Reset()
	files := []string{filepath.Join(root, "sub", "b.loop"), filepath.Join(root, "a.loop")}
	if code := run(files, &out, &errb); code != 0 {
		t.Fatalf("multi-file exit %d, stderr %q", code, errb.String())
	}
	// Explicit file lists keep the given order.
	s = out.String()
	if strings.Index(s, "b.loop") > strings.Index(s, "a.loop ==") {
		t.Fatalf("multi-file order not preserved:\n%s", s)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile write non-empty pprof files
// in both single-file and corpus mode, leaving the exit code at 0.
func TestProfileFlags(t *testing.T) {
	path := writeLoop(t, simpleSrc)
	root := corpusDir(t)
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		args []string
	}{
		{"single", []string{path}},
		{"corpus", []string{root}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cpu := filepath.Join(dir, c.name+".cpu.prof")
			mem := filepath.Join(dir, c.name+".mem.prof")
			args := append([]string{"-cpuprofile", cpu, "-memprofile", mem}, c.args...)
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr %q", code, errb.String())
			}
			for _, p := range []string{cpu, mem} {
				fi, err := os.Stat(p)
				if err != nil {
					t.Fatalf("profile not written: %v", err)
				}
				if fi.Size() == 0 {
					t.Fatalf("profile %s is empty", p)
				}
			}
		})
	}
}

// TestCorpusStatsPipeline: corpus-mode -stats includes the per-stage
// pipeline timing line at any worker count.
func TestCorpusStatsPipeline(t *testing.T) {
	root := corpusDir(t)
	for _, workers := range []string{"1", "4"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-stats", "-workers=" + workers, root}, &out, &errb); code != 0 {
			t.Fatalf("workers=%s: exit %d, stderr %q", workers, code, errb.String())
		}
		s := out.String()
		if !strings.Contains(s, "pipeline: load ") || !strings.Contains(s, "  wall ") {
			t.Fatalf("workers=%s: missing pipeline stage line:\n%s", workers, s)
		}
	}
}

// TestCorpusStoreIncremental: with -store, the second run serves both units
// from the verdict store, and editing one file re-solves only it.
func TestCorpusStoreIncremental(t *testing.T) {
	root := corpusDir(t)
	store := filepath.Join(t.TempDir(), "verdicts.store")
	args := []string{"-memo", "-stats", "-store", store, root}

	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("cold exit %d, stderr %q", code, errb.String())
	}
	if strings.Contains(out.String(), "served from store") {
		t.Fatalf("cold run claims store hits:\n%s", out.String())
	}

	out.Reset()
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("warm exit %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "== a.loop (unchanged, served from store) ==") ||
		!strings.Contains(out.String(), "corpus: 2 units (2 reused, 0 solved)") {
		t.Fatalf("warm run did not reuse the store:\n%s", out.String())
	}

	edited := strings.ReplaceAll(simpleSrc, "a[i+1]", "a[i+2]")
	if err := os.WriteFile(filepath.Join(root, "a.loop"), []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("dirty exit %d, stderr %q", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "corpus: 2 units (1 reused, 1 solved)") {
		t.Fatalf("edited corpus did not re-solve exactly one unit:\n%s", s)
	}
	if !strings.Contains(s, "== sub/b.loop (unchanged, served from store) ==") {
		t.Fatalf("unchanged unit was not served from the store:\n%s", s)
	}
	if !strings.Contains(s, "a[i + 2]") {
		t.Fatalf("edited unit's fresh results missing:\n%s", s)
	}
}

// TestMemoFileWarmStart: a second run over the same -memo-file loads the
// table the first run saved, runs no fresh tests, and prints the same
// report (provenance tags aside: a warm run serves its verdicts from the
// cache). The file is replaced atomically, like a store file: mode 0600,
// and no temp file is left next to it.
func TestMemoFileWarmStart(t *testing.T) {
	src := writeLoop(t, simpleSrc+"for i = 1 to 10\n  b[2*i] = b[2*i+1]\nend\n")
	dir := t.TempDir()
	memoPath := filepath.Join(dir, "memo.bin")
	args := []string{"-memo-file", memoPath, "-stats", src}

	testsRun := regexp.MustCompile(`tests: (\d+)`)
	// report drops the counter block and normalizes the provenance tags.
	tags := regexp.MustCompile(`  \[[^]]*\]`)
	report := func(out string) string {
		out, _, _ = strings.Cut(out, "\npairs: ")
		return tags.ReplaceAllString(out, "  [T]")
	}

	var cold, warm, errb bytes.Buffer
	if code := run(args, &cold, &errb); code != 0 {
		t.Fatalf("cold exit %d, stderr %q", code, errb.String())
	}
	if m := testsRun.FindStringSubmatch(cold.String()); m == nil || m[1] == "0" {
		t.Fatalf("premise: the cold run must run tests:\n%s", cold.String())
	}
	if code := run(args, &warm, &errb); code != 0 {
		t.Fatalf("warm exit %d, stderr %q", code, errb.String())
	}
	if m := testsRun.FindStringSubmatch(warm.String()); m == nil || m[1] != "0" {
		t.Fatalf("warm run must answer every pair from the memo file:\n%s", warm.String())
	}
	if got, want := report(warm.String()), report(cold.String()); got != want {
		t.Fatalf("warm report differs from cold:\n%s\nwant:\n%s", got, want)
	}

	info, err := os.Stat(memoPath)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o600 {
		t.Errorf("memo file mode %v, want 0600", perm)
	}
	left, err := filepath.Glob(filepath.Join(dir, ".exactdep-memo-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("temp files left behind: %v", left)
	}
}

// TestMemoFileStale: a -memo-file written under an older semantics version
// starts the run cold instead of failing it, and the run replaces the file,
// so the next run starts warm.
func TestMemoFileStale(t *testing.T) {
	src := writeLoop(t, simpleSrc)
	memoPath := filepath.Join(t.TempDir(), "memo.bin")
	stale := binary.AppendUvarint([]byte(persist.MemoFile.Magic), persist.FormatVersion)
	stale = binary.AppendUvarint(stale, persist.SemanticsVersion-1)
	if err := os.WriteFile(memoPath, persist.AppendString(stale, "keys=improved"), 0o600); err != nil {
		t.Fatal(err)
	}
	args := []string{"-memo-file", memoPath, "-stats", src}
	testsRun := regexp.MustCompile(`tests: (\d+)`)
	for i, want := range []string{"cold", "warm"} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("run %d exit %d, stderr %q", i, code, errb.String())
		}
		m := testsRun.FindStringSubmatch(out.String())
		if m == nil || (m[1] == "0") != (want == "warm") {
			t.Fatalf("run %d must start %s:\n%s", i, want, out.String())
		}
	}
}

// TestMemoFileWithoutMagic: a -memo-file without the header's magic — every
// gob memo file written before the binary format — fails the run with an
// error that names the file.
func TestMemoFileWithoutMagic(t *testing.T) {
	src := writeLoop(t, simpleSrc)
	memoPath := filepath.Join(t.TempDir(), "memo.bin")
	if err := os.WriteFile(memoPath, []byte("\x1d\xff\x81\x03\x01\x01\x0bsavedTables"), 0o600); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-memo-file", memoPath, src}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), memoPath) {
		t.Fatalf("error does not name the file: %q", errb.String())
	}
}

// TestCorpusModeExitCodes: corpus-specific usage and runtime errors.
func TestCorpusModeExitCodes(t *testing.T) {
	root := corpusDir(t)
	single := writeLoop(t, simpleSrc)
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"store on single file", []string{"-store", filepath.Join(t.TempDir(), "s"), single}, 2},
		{"annotate on corpus", []string{"-annotate", root}, 2},
		{"dot on corpus", []string{"-dot", root}, 2},
		{"distribute on corpus", []string{"-distribute", root}, 2},
		{"empty dir", []string{t.TempDir()}, 1},
		{"missing file in list", []string{single, filepath.Join(t.TempDir(), "nope.loop")}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(c.args, &out, &errb); code != c.want {
				t.Fatalf("exit %d, want %d (stderr %q)", code, c.want, errb.String())
			}
		})
	}
}

// TestJSONOutput: -json emits the versioned wire document in both single
// and corpus mode, with canonical bytes identical to what the text report's
// verdicts render — the CLI and the depserve service speak one schema.
func TestJSONOutput(t *testing.T) {
	single := writeLoop(t, simpleSrc)
	var out, errb bytes.Buffer
	if code := run([]string{"-json", single}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	var resp wire.AnalyzeResponse
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatalf("output is not a wire document: %v\n%s", err, out.String())
	}
	if resp.SchemaVersion != wire.SchemaVersion || resp.BudgetClass != "exhaustive" {
		t.Errorf("document header %+v", resp)
	}
	if len(resp.Units) != 1 || len(resp.Units[0].Results) == 0 || len(resp.Units[0].Fingerprint) != 32 {
		t.Fatalf("unexpected units %+v", resp.Units)
	}
	if resp.Stats.UnitsSolved != 1 || resp.Counters.Pairs == 0 {
		t.Errorf("stats/counters not filled: %+v %+v", resp.Stats, resp.Counters)
	}

	// Corpus mode: same document shape, one unit per file, and byte-stable
	// across -workers.
	root := corpusDir(t)
	var serial, parallel bytes.Buffer
	if code := run([]string{"-json", "-workers", "1", root}, &serial, &errb); code != 0 {
		t.Fatalf("corpus json exit %d, stderr %q", code, errb.String())
	}
	if code := run([]string{"-json", "-workers", "4", root}, &parallel, &errb); code != 0 {
		t.Fatalf("corpus json -workers exit %d, stderr %q", code, errb.String())
	}
	if serial.String() != parallel.String() {
		t.Error("-json output differs across worker counts")
	}
	var corpusResp wire.AnalyzeResponse
	if err := json.Unmarshal(serial.Bytes(), &corpusResp); err != nil {
		t.Fatal(err)
	}
	if len(corpusResp.Units) != 2 {
		t.Fatalf("corpus document has %d units, want 2", len(corpusResp.Units))
	}

	// A custom budget renders as the "custom" class.
	out.Reset()
	if code := run([]string{"-json", "-budget-fm", "2", single}, &out, &errb); code != 0 {
		t.Fatalf("budget json exit %d", code)
	}
	var budgeted wire.AnalyzeResponse
	if err := json.Unmarshal(out.Bytes(), &budgeted); err != nil {
		t.Fatal(err)
	}
	if budgeted.BudgetClass != "custom" {
		t.Errorf("budget class %q, want custom", budgeted.BudgetClass)
	}

	// -json excludes the per-program text renderers.
	if code := run([]string{"-json", "-annotate", single}, &out, &errb); code != 2 {
		t.Errorf("-json -annotate exit %d, want 2", code)
	}
}

var update = flag.Bool("update", false, "rewrite the golden files")

// TestSingleFileGolden pins the single-file report byte for byte at one
// worker: the plain text report, -stats (with and without -memo), and the
// -json document, for a cheap program and one that reaches
// Fourier–Motzkin. The temp-file path is replaced by its base name so the
// golden is stable. Run with -update to rewrite testdata/singlefile.golden.
func TestSingleFileGolden(t *testing.T) {
	var got bytes.Buffer
	for _, prog := range []struct{ name, src string }{{"simple", simpleSrc}, {"fmhard", fmHardSrc}} {
		path := writeLoop(t, prog.src)
		for _, flags := range [][]string{nil, {"-stats"}, {"-stats", "-memo"}, {"-json"}} {
			args := append([]string{"-workers=1"}, flags...)
			var out, errb bytes.Buffer
			if code := run(append(args, path), &out, &errb); code != 0 {
				t.Fatalf("%s %v: exit %d, stderr %q", prog.name, args, code, errb.String())
			}
			fmt.Fprintf(&got, "=== %s %s\n", prog.name, strings.Join(args, " "))
			got.WriteString(strings.ReplaceAll(out.String(), path, filepath.Base(path)))
			got.WriteString(errb.String())
		}
	}
	golden := filepath.Join("testdata", "singlefile.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run: go test ./cmd/depanalyze -run SingleFileGolden -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("single-file output differs from %s:\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}

// TestCorpusStoreGolden pins the report of a warm -store run over a
// directory byte for byte: the text report and the -json document, at one
// and at four workers. Every file is unchanged, so the run serves each
// unit without parsing it, and the printers must still render every pair
// and every lowering warning. The golden was captured before the verdict
// store kept a file index. Run with -update to rewrite
// testdata/corpusstore.golden.
func TestCorpusStoreGolden(t *testing.T) {
	root := corpusDir(t)
	if err := os.WriteFile(filepath.Join(root, "c.loop"), []byte("for i = 1 to 10\n  c[i*i] = c[i] + 1\n  d[i+1] = d[i]\nend\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(t.TempDir(), "verdicts.store")
	var got, out, errb bytes.Buffer
	if code := run([]string{"-store", store, root}, &out, &errb); code != 0 {
		t.Fatalf("cold exit %d, stderr %q", code, errb.String())
	}
	for _, flags := range [][]string{{"-workers=1"}, {"-workers=4"}, {"-workers=1", "-json"}, {"-workers=4", "-json"}} {
		out.Reset()
		errb.Reset()
		if code := run(append(flags, "-store", store, root), &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", flags, code, errb.String())
		}
		fmt.Fprintf(&got, "=== %s\n", strings.Join(flags, " "))
		got.Write(out.Bytes())
		got.Write(errb.Bytes())
	}
	golden := filepath.Join("testdata", "corpusstore.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run: go test ./cmd/depanalyze -run CorpusStoreGolden -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("warm corpus output differs from %s:\n got:\n%s\nwant:\n%s", golden, got.Bytes(), want)
	}
}
