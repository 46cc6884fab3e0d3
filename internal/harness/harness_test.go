package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func runTable(t *testing.T, n int, paper bool) string {
	t.Helper()
	var buf bytes.Buffer
	h := New(&buf, paper)
	if err := h.Table(n); err != nil {
		t.Fatalf("table %d: %v", n, err)
	}
	return buf.String()
}

func TestTable1MatchesPaperTotals(t *testing.T) {
	out := runTable(t, 1, false)
	for _, want := range []string{
		"TOTAL     59412     11859  384  5176      323             6              174",
		"0 unknown",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	out := runTable(t, 2, false)
	if !strings.Contains(out, "6063") || !strings.Contains(out, "5679") {
		t.Fatalf("table 2 totals wrong:\n%s", out)
	}
	// TOT row: simple% must exceed improved% in both table halves
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "TOT") {
			f := strings.Fields(line)
			if len(f) < 7 {
				t.Fatalf("TOT row malformed: %q", line)
			}
			if pctVal(t, f[2]) < pctVal(t, f[3]) || pctVal(t, f[5]) < pctVal(t, f[6]) {
				t.Fatalf("simple%% must be ≥ improved%%: %q", line)
			}
		}
	}
}

func pctVal(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		t.Fatalf("bad percentage %q: %v", s, err)
	}
	return v
}

func TestTable3MemoHeadline(t *testing.T) {
	out := runTable(t, 3, false)
	if !strings.Contains(out, "memoization reduces the total from 5679 to 332 tests") {
		t.Fatalf("headline missing:\n%s", out)
	}
}

func TestTables4And5Reduction(t *testing.T) {
	out4 := runTable(t, 4, false)
	out5 := runTable(t, 5, false)
	t4 := totalDirTests(t, out4)
	t5 := totalDirTests(t, out5)
	if t5*3 > t4 {
		t.Fatalf("pruning must cut direction tests by ≥3x: %d vs %d", t4, t5)
	}
	if t4 < 5000 || t4 > 20000 {
		t.Fatalf("unpruned direction tests = %d, want the paper's order (≈12,500)", t4)
	}
	if t5 > 2000 {
		t.Fatalf("pruned direction tests = %d, want the paper's order (≈900)", t5)
	}
}

func TestTable7AddsSymbolicTests(t *testing.T) {
	t5 := totalDirTests(t, runTable(t, 5, false))
	t7 := totalDirTests(t, runTable(t, 7, false))
	if t7 <= t5 {
		t.Fatalf("symbolic cases must add tests: %d vs %d", t7, t5)
	}
	if t7-t5 > 500 {
		t.Fatalf("symbolic delta = %d, paper's is ≈160", t7-t5)
	}
}

func totalDirTests(t *testing.T, out string) int {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "total direction-vector tests:") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "total direction-vector tests:")), "%d", &n); err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no total line in:\n%s", out)
	return 0
}

func TestTable6OverheadSmall(t *testing.T) {
	out := runTable(t, 6, false)
	if !strings.Contains(out, "TOTAL") || !strings.Contains(out, "compile model") {
		t.Fatalf("table 6 malformed:\n%s", out)
	}
}

func TestFigure1(t *testing.T) {
	var buf bytes.Buffer
	h := New(&buf, false)
	if err := h.Figure(1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"t1 -> t3 [-4]",
		"n0 -> t1 [-1]",
		"t3 -> n0 [4]",
		"system independent",
		"digraph residue",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 1 missing %q:\n%s", want, out)
		}
	}
	if err := h.Figure(2); err == nil {
		t.Error("figure 2 must not exist")
	}
}

func TestCompareSection7(t *testing.T) {
	var buf bytes.Buffer
	h := New(&buf, false)
	if err := h.Compare(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"independent pairs (exact): 480",
		"missing",
		"soundness: baseline never refuted",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare missing %q:\n%s", want, out)
		}
	}
}

func TestBadTableNumber(t *testing.T) {
	h := New(&bytes.Buffer{}, false)
	if err := h.Table(0); err == nil {
		t.Error("table 0 must error")
	}
	if err := h.Table(8); err == nil {
		t.Error("table 8 must error")
	}
}

func TestSharedTable(t *testing.T) {
	var buf bytes.Buffer
	h := New(&buf, false)
	if err := h.SharedTable(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var per, shared int
	if _, err := fmt.Sscanf(grab(t, out, "per-program tables:"), "%d", &per); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(grab(t, out, "one shared table:"), "%d", &shared); err != nil {
		t.Fatal(err)
	}
	if per != 332 {
		t.Fatalf("per-program total = %d, want 332", per)
	}
	if shared >= per {
		t.Fatalf("sharing must strictly help: %d > %d expected", per, shared)
	}
}

// grab returns the remainder of the line containing marker.
func grab(t *testing.T, out, marker string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, marker); i >= 0 {
			return strings.TrimSpace(line[i+len(marker):])
		}
	}
	t.Fatalf("marker %q not found in:\n%s", marker, out)
	return ""
}

func TestPaperAppendix(t *testing.T) {
	out := runTable(t, 1, true)
	if !strings.Contains(out, "paper Table 1:") {
		t.Fatalf("paper rows missing:\n%s", out)
	}
}
