package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/depvec"
	"exactdep/internal/dtest"
	"exactdep/internal/ir"
	"exactdep/internal/memo"
	"exactdep/internal/workload"
)

// encodeTyped is the oracle AppendAnalyzeResponse must match: resp with its
// units converted by FromUnitResult, written by json.Encoder with HTML
// escaping off, as depserve wrote every reply before the appender.
func encodeTyped(tb testing.TB, resp AnalyzeResponse, urs []corpus.UnitResult) []byte {
	tb.Helper()
	resp.Units = make([]UnitVerdicts, len(urs))
	for i := range urs {
		resp.Units[i] = FromUnitResult(&urs[i])
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&resp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkAppend fails the test when the appender's bytes differ from the
// oracle's, naming the first differing byte.
func checkAppend(tb testing.TB, resp AnalyzeResponse, urs []corpus.UnitResult) {
	tb.Helper()
	want := encodeTyped(tb, resp, urs)
	got := AppendAnalyzeResponse([]byte("prefix"), &resp, urs)
	if !bytes.HasPrefix(got, []byte("prefix")) {
		tb.Fatalf("appender overwrote the bytes before it")
	}
	got = got[len("prefix"):]
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-40, 0)
	tb.Fatalf("appender diverges from encoding/json at byte %d of %d:\nappend: %q\njson:   %q",
		i, len(want), got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
}

// degraded is the header of a reply whose class admission control shrank.
var degraded = AnalyzeResponse{
	SchemaVersion:  SchemaVersion,
	BudgetClass:    "economy",
	RequestedClass: "standard",
	DegradedByLoad: true,
	Stats:          CorpusStats{Units: 3, UnitsReused: 1, UnitsSolved: 2, PairsServed: 5, PairsSolved: 7},
	Counters: Counters{Pairs: 12, Constant: 1, GCDIndependent: 2, Tests: 3, Independent: 4,
		Dependent: 5, Unknown: 6, Maybe: 7, BudgetTrips: 8, CancelledPairs: 9},
}

// TestAppendResponseMatchesEncoder renders real runs: the suite, a
// LargeCorpus of 4,096 nests and the FM-hard programs at one and two
// workers, with direction vectors, first solved and then served from a
// verdict store, under both the plain and a degraded header.
func TestAppendResponseMatchesEncoder(t *testing.T) {
	suite, err := workload.SuiteSource(false)
	if err != nil {
		t.Fatal(err)
	}
	large, err := workload.LargeCorpusUnits(4096)
	if err != nil {
		t.Fatal(err)
	}
	units := append(append(append(corpus.Mem{}, suite...), large...), testUnits(t)...)
	opts := core.Options{Memoize: true, ImprovedMemo: true,
		DirectionVectors: true, PruneUnused: true, PruneDistance: true}
	for _, workers := range []int{1, 2} {
		d := corpus.NewDriver(opts, workers)
		if err := d.SetStore(corpus.NewStore(opts)); err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			urs, err := d.RunAll(context.Background(), units)
			if err != nil {
				t.Fatal(err)
			}
			if reused := urs[0].Reused; reused != (pass == 1) {
				t.Fatalf("workers=%d pass %d: reused=%t", workers, pass, reused)
			}
			plain := AnalyzeResponse{SchemaVersion: SchemaVersion, BudgetClass: "exhaustive",
				Stats: FromCorpusStats(d.Stats), Counters: FromCounters(d.Analyzer().Stats)}
			checkAppend(t, plain, urs)
			checkAppend(t, degraded, urs)
		}
	}
}

// fuzzResponse builds a response header and unit results from fuzz input.
// text holds the strings, separated by '|'; a and b are the integers the
// extremes are drawn with; shape picks the structure, one byte per choice
// (reads past its end give 0). No result need be one the analyzer could
// produce: the appender must match encoding/json on any value.
func fuzzResponse(text string, a, b int64, shape []byte) (AnalyzeResponse, []corpus.UnitResult) {
	pieces := strings.Split(text, "|")
	pos := 0
	next := func() int {
		if pos >= len(shape) {
			return 0
		}
		pos++
		return int(shape[pos-1])
	}
	piece := func() string { return pieces[next()%len(pieces)] }
	pick := func() int64 {
		return [...]int64{a, b, math.MinInt64, math.MaxInt64, -1, 0, 1}[next()%7]
	}
	expr := func() ir.Expr {
		e := ir.Expr{Const: pick()}
		for n := next() % 3; n > 0; n-- {
			e.Terms = append(e.Terms, ir.Term{Var: piece(), Coeff: pick()})
		}
		return e
	}
	ref := func() ir.Ref {
		r := ir.Ref{Array: piece(), Kind: ir.RefKind(next() % 2)}
		for n := next() % 3; n > 0; n-- {
			r.Subscripts = append(r.Subscripts, expr())
		}
		return r
	}

	h := next()
	resp := AnalyzeResponse{
		SchemaVersion:  int(a),
		DegradedByLoad: h&4 != 0,
		Stats:          CorpusStats{int(a), int(b), int(-a), int(-b), int(a ^ b)},
		Counters:       Counters{int(b), int(a), 0, 1, -1, math.MaxInt, math.MinInt, int(a), int(b), int(a + b)},
	}
	if h&1 != 0 {
		resp.BudgetClass = piece()
	}
	if h&2 != 0 {
		resp.RequestedClass = piece()
	}
	urs := make([]corpus.UnitResult, next()%4)
	for i := range urs {
		ur := &urs[i]
		ur.Name = piece()
		ur.Fingerprint = memo.Fingerprint{Hi: uint64(a) ^ uint64(next()), Lo: uint64(b)}
		f := next()
		ur.Reused = f&1 != 0
		if f&2 != 0 {
			ur.Warnings = []string{}
		}
		for n := (f >> 2) % 3; n > 0; n-- {
			ur.Warnings = append(ur.Warnings, piece())
		}
		ur.Results = make([]core.Result, next()%4)
		for j := range ur.Results {
			r := &ur.Results[j]
			if next()%4 != 0 { // else the zero Pair of a result served through the file index
				r.Pair.A.Ref, r.Pair.B.Ref = ref(), ref()
			}
			r.Outcome = dtest.Outcome(next() % 5)
			r.Exact = next()%2 != 0
			r.DecidedBy = core.DecidedBy(next() % 7)
			r.Kind = dtest.Kind(next() % 6)
			r.Trip = dtest.TripReason(next() % 9)
			nv := next() % 4
			if nv == 3 {
				r.Vectors = []depvec.Vector{}
			}
			for ; nv > 0 && nv < 3; nv-- {
				v := depvec.Vector{}
				for n := next() % 4; n > 0; n-- {
					d := next()
					if d < 4 {
						d = int("<=>*"[d])
					}
					v = append(v, depvec.Direction(d))
				}
				r.Vectors = append(r.Vectors, v)
			}
			for n := next() % 3; n > 0; n-- {
				r.Distances = append(r.Distances, depvec.Distance{Level: int(int8(next())), Value: pick()})
			}
		}
	}
	return resp, urs
}

// fullShape drives fuzzResponse through every field of a response, using
// the first four pieces of the text as names.
var fullShape = []byte{
	7, 0, 1, // header: budgetClass piece 0, requestedClass piece 1, degradedByLoad
	3, // three units
	// unit 0: name piece 0, reused, warnings pieces 2 and 3, two results
	0, 9, 1 | 2<<2, 2, 3, 2,
	// result 0: piece1[...][...] (write) vs piece2[...] (read)
	1,
	1, 1, 2, // A: array piece 1, write, two subscripts:
	2, 2, 2, 3, 3, 2, // MinInt64 + MaxInt64*piece2 + MinInt64*piece3
	4, 1, 0, 4, // -1 - piece0
	2, 0, 1, // B: array piece 2, read, one subscript:
	0, 1, 1, 1, // a + b*piece1
	1, 1, 2, 4, 1, // dependent, exact, by test, Fourier-Motzkin, trip fm-eliminations
	2, 0, 3, 0, 3, 255, // vectors "()" and "(<, *, \xff)"
	2, 0, 2, 255, 3, // distances: level 0 MinInt64, level -1 MaxInt64
	// result 1: piece3 (read) vs piece0[1] (write), independent by constant
	1, 3, 0, 0, 0, 1, 1, 6, 0,
	0, 0, 0, 0, 0, 0, 0,
	// unit 1: name piece 1, one result with the zero Pair of a unit served
	// through the file index, unknown by cache, an empty vector list
	1, 5, 0, 1, 0, 2, 0, 3, 0, 0, 3, 0,
	// unit 2: name piece 2, an empty warning list, no results
	2, 0, 2, 0,
}

// FuzzAppendResponse checks AppendAnalyzeResponse byte for byte against
// encoding/json on any header and any unit results. The seeds cover each
// escaping rule: invalid UTF-8 (\ufffd), each control-byte class ('\b' and
// the other short escapes, \u00XX, DEL copied), '"' and '\', U+2028 and
// U+2029, and '<', '>' and '&' (copied, as HTML escaping is off); then
// the shapes: an empty vector, distances at the int64 extremes, a zero
// Pair, no units, units without results, and a degraded header.
func FuzzAppendResponse(f *testing.F) {
	texts := []string{
		"p.loop|a|i|j",
		"bad\xffutf8|\xc3(|\xe2\x80|x\xff",
		"nul\x00|\x01\x1f|\b\f|\n\r\t|\x7f",
		`quote"|back\slash|"\"|\`,
		"ls\u2028|ps\u2029|\u2028\u2029|x",
		"<b>&amp;|a<b|&|>",
		"é|漢字|\U0001F600|\uFFFD",
	}
	for _, text := range texts {
		f.Add(text, int64(math.MinInt64), int64(math.MaxInt64), fullShape)
	}
	f.Add("", int64(0), int64(0), []byte{})                         // no units
	f.Add("u", int64(-1), int64(1), []byte{7, 0, 0, 1, 0, 0, 0, 0}) // degraded, a unit without results
	f.Add("u", int64(2), int64(-2), []byte{0, 1, 0, 0, 0, 1, 0})    // a zero Pair
	f.Fuzz(func(t *testing.T, text string, a, b int64, shape []byte) {
		resp, urs := fuzzResponse(text, a, b, shape)
		checkAppend(t, resp, urs)
	})
}

// TestAppendResponseAllocs: rendering a unit into a buffer with room to
// spare allocates nothing, whether it holds 2, 32 or 256 pairs.
func TestAppendResponseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	ur, _ := servedUnit(t)
	if len(ur.Results) < 256 {
		t.Fatalf("served unit has %d pairs, want at least 256", len(ur.Results))
	}
	resp := &AnalyzeResponse{SchemaVersion: SchemaVersion, BudgetClass: "exhaustive"}
	buf := make([]byte, 0, 1<<20)
	for _, n := range []int{2, 32, 256} {
		part := ur
		part.Results = ur.Results[:n]
		urs := []corpus.UnitResult{part}
		if allocs := testing.AllocsPerRun(20, func() {
			buf = AppendAnalyzeResponse(buf[:0], resp, urs)
		}); allocs != 0 {
			t.Errorf("%d pairs: %.1f allocations, want 0", n, allocs)
		}
	}
}

// servedUnit returns one 128-nest LargeCorpus program as a unit served from
// a verdict store, what a serve-mixed repeat renders, and the body of the
// analyze request that asks for it.
func servedUnit(tb testing.TB) (corpus.UnitResult, []byte) {
	tb.Helper()
	spec := workload.LargeCorpus(128)[0]
	src := workload.Source(spec, false)
	u, err := corpus.FromSource(spec.Name, src)
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.Options{Memoize: true, ImprovedMemo: true,
		DirectionVectors: true, PruneUnused: true, PruneDistance: true}
	d := corpus.NewDriver(opts, 1)
	if err := d.SetStore(corpus.NewStore(opts)); err != nil {
		tb.Fatal(err)
	}
	var urs []corpus.UnitResult
	for pass := 0; pass < 2; pass++ {
		if urs, err = d.RunAll(context.Background(), corpus.Mem{u}); err != nil {
			tb.Fatal(err)
		}
	}
	if !urs[0].Reused {
		tb.Fatal("second run did not serve the unit from the store")
	}
	body, err := json.Marshal(AnalyzeRequest{SchemaVersion: SchemaVersion,
		Units: []UnitSource{{Name: spec.Name, Source: src}}})
	if err != nil {
		tb.Fatal(err)
	}
	return urs[0], body
}
