package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"exactdep/internal/corpus"
	"exactdep/internal/stats"
)

func TestPercentileSampleRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	for _, c := range []struct {
		q      float64
		v      float64
		beyond int
		ok     bool
	}{
		{0.50, 50, 50, true},
		{0.90, 90, 10, true},
		{0.99, 99, 1, false},
	} {
		v, beyond, ok := percentile(xs, c.q)
		if v != c.v || beyond != c.beyond || ok != c.ok {
			t.Errorf("q=%g: got (%g, %d, %v), want (%g, %d, %v)", c.q, v, beyond, ok, c.v, c.beyond, c.ok)
		}
	}
	if _, beyond, ok := percentile(xs[:99], 0.90); ok || beyond != 9 {
		t.Errorf("99 samples: p90 has %d beyond, reportable %v; want 9, false", beyond, ok)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}

	r := &report{}
	r.addPercentile("p90_ms", xs[:99], 0.90)
	r.addPercentile("p50_ms", xs, 0.50)
	if _, err := r.jsonResult([]metricDecl{{"p50_ms", "ms"}}, true, 1, 0); err != nil {
		t.Errorf("reportable metric rejected: %v", err)
	}
	if _, err := r.jsonResult([]metricDecl{{"p50_ms", "ms"}, {"p90_ms", "ms"}}, true, 1, 0); err == nil || !strings.Contains(err.Error(), "p90_ms") {
		t.Errorf("skipped p90_ms must make the result line an error, got %v", err)
	}
	if _, err := r.jsonResult([]metricDecl{{"p50_ms", "s"}}, true, 1, 0); err == nil {
		t.Error("a metric in another unit than declared must make the result line an error")
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	// The first request stalls the only connection for 300 ms; requests
	// due meanwhile must wait (never dropped) and be timed from when they
	// were due, not from when they were sent.
	const stall = 300 * time.Millisecond
	var mu sync.Mutex
	first := true
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		f := first
		first = false
		mu.Unlock()
		if f {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	bodies := make([][]byte, 20)
	for i := range bodies {
		bodies[i] = []byte("{}")
	}
	recs := openLoop(context.Background(), srv.Client(), srv.URL, bodies, 100, 1)
	if len(recs) != len(bodies) {
		t.Fatalf("%d records for %d requests", len(recs), len(bodies))
	}
	for i := range recs {
		if !recs[i].ok() {
			t.Fatalf("request %d failed: %d %v", i, recs[i].status, recs[i].err)
		}
		if late := recs[i].dispatched - recs[i].due; late > 100*time.Millisecond {
			t.Errorf("request %d dispatched %v after its due time: the generator must not wait on the server", i, late)
		}
	}
	// Request 1 is due at 10 ms and can only start once request 0 ends.
	if lat, sendLat := recs[1].latency(), recs[1].done-recs[1].start; lat < stall-50*time.Millisecond || sendLat > stall/2 {
		t.Errorf("request 1: latency from due %v, from send %v; want the stall in the former only", lat, sendLat)
	}
	// Request 19 is due at 190 ms, still inside the stall.
	if recs[19].latency() < stall-200*time.Millisecond {
		t.Errorf("request 19 latency %v does not show the stall", recs[19].latency())
	}
}

func TestJudgeRateFailsGrowingBacklog(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(10 * time.Millisecond) // capacity 100/s on one connection
	}))
	defer srv.Close()
	run := func(rate float64, n int) rateVerdict {
		bodies := make([][]byte, n)
		for i := range bodies {
			bodies[i] = []byte("{}")
		}
		recs := openLoop(context.Background(), srv.Client(), srv.URL, bodies, rate, 1)
		return judgeRate(recs, rate, time.Duration(float64(n)/rate*float64(time.Second)), 1)
	}
	if v := run(20, 20); !v.sustained {
		t.Errorf("20/s against 100/s capacity not sustained: %+v", v)
	}
	if v := run(400, 200); v.sustained || v.backlogEnd <= v.backlogMid {
		t.Errorf("400/s against 100/s capacity judged sustained or without backlog growth: %+v", v)
	}
}

func TestSharesWithOverlappingChildren(t *testing.T) {
	// root [0,100]; A [10,60] and B [30,80] overlap; A1 [10,20] inside A.
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 60},
		{ID: 2, Parent: 0, Start: 30, End: 80},
		{ID: 3, Parent: 1, Start: 10, End: 20},
	}
	got := shares(spans)
	want := []float64{30, 25, 35, 10}
	var sum float64
	for i := range want {
		sum += got[i]
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("span %d share %g, want %g", i, got[i], want[i])
		}
	}
	if sum != 100 {
		t.Errorf("shares sum to %g, want the root's 100", sum)
	}

	// Without overlap a share is the duration minus the union of the
	// children: root 100 - (20 + 30) = 50.
	seq := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 50, End: 80},
	}
	if got := shares(seq); got[0] != 50 || got[1] != 20 || got[2] != 30 {
		t.Errorf("sequential shares %v, want [50 20 30]", got)
	}

	l := newLedger()
	l.addSpans([]span{
		{ID: 0, Parent: -1, Layer: lineUnattributed, Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "lang.parse", Start: 10, End: 60},
		{ID: 2, Parent: 0, Layer: "lang.parse", Start: 30, End: 80},
	}, nil)
	if l.lines["lang.parse"] != 70 || l.lines[lineUnattributed] != 30 {
		t.Errorf("ledger lines %v, want lang.parse 70 (the union) and unattributed 30", l.lines)
	}
}

func TestSplitDriverCloses(t *testing.T) {
	var c stats.Counters
	c.StageTimeNs[cascadeStages[0].kind] = 20
	c.StageTimeNs[cascadeStages[3].kind] = 40
	st := corpus.StageTimes{Fingerprint: 10, Probe: 6, Solve: 100, Emit: 5}
	sum := func(m map[string]float64) (s float64) {
		for _, v := range m {
			s += v
		}
		return s
	}
	// Two workers: the summed timers count half. Claims 5+3+5+10+20+70 =
	// 113 fit in 200, and run_other takes the remaining 87.
	m := splitDriver(200, st, &c, 2)
	if m["core.other"] != 70 || m["dtest.fm"] != 20 || m["corpus.fingerprint"] != 5 || m[lineRunOther] != 87 {
		t.Errorf("split %v", m)
	}
	if s := sum(m); s != 200 {
		t.Errorf("split sums to %g, want 200", s)
	}
	// Claims beyond the span's share are scaled down to fit exactly.
	m = splitDriver(50, st, &c, 2)
	if s := sum(m); math.Abs(s-50) > 1e-9 || m[lineRunOther] != 0 {
		t.Errorf("scaled split %v sums to %g, want 50 with no remainder", m, s)
	}
}

func TestRatioBases(t *testing.T) {
	if r := (ratio{3, 4}); r.value() != 0.75 || r.base() != "3/4" {
		t.Errorf("3/4: value %g base %q", r.value(), r.base())
	}
	if r := (ratio{0, 0}); r.value() != 0 || r.base() != "0/0" {
		t.Errorf("0/0: value %g base %q", r.value(), r.base())
	}
	c := &layerCounts{ops: 2, units: 10, reused: 4}
	c.counters.FullLookups, c.counters.FullHits = 8, 6
	c.counters.L1Lookups, c.counters.L1Hits = 8, 2
	k := cascadeStages[2].kind
	c.counters.StageConsulted[k], c.counters.StageDecided[k] = 5, 1
	r := &report{}
	addCounts(r, c)
	for name, want := range map[string]string{
		"memo.full_hit_ratio":         "6/8",
		"memo.l1_hit_ratio":           "2/8",
		"dtest.residue_decided_ratio": "1/5",
		"corpus.reused_ratio":         "4/10",
		"memo.eq_hit_ratio":           "0/0",
	} {
		if m, ok := r.get(name); !ok || m.Base != want {
			t.Errorf("%s base %q, want %q", name, m.Base, want)
		}
	}
}

func TestGateCatchesOneByteMismatch(t *testing.T) {
	opts := measuredOptions(1)
	g := newGate(opts)
	p := largePrograms(3, "test", "T", 1, map[string]bool{})[0]
	if err := g.compute([]program{p}); err != nil {
		t.Fatal(err)
	}
	u, err := corpus.FromSource(p.Name, p.Src)
	if err != nil {
		t.Fatal(err)
	}
	urs, err := corpus.NewDriver(opts, 1).RunAll(context.Background(), corpus.Mem{u})
	if err != nil {
		t.Fatal(err)
	}
	want := g.expect([]program{p})
	if out := summarize(urs); !out.matches(want) {
		t.Fatal("the measured configuration disagrees with the reference")
	}
	bad := append([]byte(nil), want...)
	bad[len(bad)/2] ^= 1
	if out := summarize(urs); out.matches(bad) {
		t.Error("a one-byte change to the expected bytes went unnoticed")
	}
	if msg := firstMismatch(bad, want); !strings.Contains(msg, "byte") {
		t.Errorf("mismatch message %q", msg)
	}
	// A one-verdict change in the output is caught the same way.
	urs[0].Results[0].Exact = !urs[0].Results[0].Exact
	if summarize(urs).matches(want) {
		t.Error("a changed verdict went unnoticed")
	}
}

func TestPinnedReferences(t *testing.T) {
	opts := measuredOptions(1)
	g := newGate(opts)
	if err := checkPinned(g, "corpus-edit", editCorpus(defaultSeed)); err != nil {
		t.Error(err)
	}
	if err := checkPinned(g, "corpus-cold", coldCorpus(defaultSeed)); err != nil {
		t.Error(err)
	}
	if err := checkPinned(g, "serve-mixed", largePrograms(defaultSeed, "serve-mixed/warm", "W", hotPrograms, map[string]bool{})); err != nil {
		t.Error(err)
	}
}

func TestEditsChangeFingerprints(t *testing.T) {
	p := largePrograms(5, "test", "T", 1, map[string]bool{})[0]
	seen := map[string]bool{p.Src: true}
	var fp corpus.Fingerprinter
	u, _ := corpus.FromSource(p.Name, p.Src)
	fps := map[[2]uint64]bool{}
	f := u.Fingerprint(&fp)
	fps[[2]uint64{f.Hi, f.Lo}] = true
	for v := 0; v < 8; v++ {
		e := editVariant(5, p, v)
		if seen[e.Src] {
			t.Fatalf("variant %d repeats an earlier source", v)
		}
		seen[e.Src] = true
		if again := editVariant(5, p, v); again.Src != e.Src {
			t.Fatalf("variant %d is not deterministic", v)
		}
		eu, err := corpus.FromSource(e.Name, e.Src)
		if err != nil {
			t.Fatal(err)
		}
		f := eu.Fingerprint(&fp)
		if fps[[2]uint64{f.Hi, f.Lo}] {
			t.Fatalf("variant %d keeps an earlier fingerprint", v)
		}
		fps[[2]uint64{f.Hi, f.Lo}] = true
	}
}

func TestBenchmarkJSONDeclaresTheMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []decl, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, benchmark %v", what, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
