package server

// Service-layer tests: end-to-end byte identity with the batch path,
// warm-tier reuse across requests and restarts, admission degradation and
// shedding under a held executor, graceful shutdown draining, and the
// client-error surface. Everything runs over real HTTP on a loopback port
// and is asserted against /v1/statsz counters; the suite must be race-clean.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/dtest"
	"exactdep/internal/persist"
	"exactdep/internal/wire"
	"exactdep/internal/workload"
)

// testOptions is the base configuration every test server runs: the full
// result surface with per-request memoization — depserve's own defaults.
func testOptions() core.Options {
	return core.Options{
		DirectionVectors: true,
		PruneUnused:      true,
		PruneDistance:    true,
		Memoize:          true,
		ImprovedMemo:     true,
	}
}

// startServer boots a server on a free loopback port and tears it down with
// the test.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, "http://" + addr
}

// suiteUnits returns the workload suite as wire unit sources.
func suiteUnits(t *testing.T) []wire.UnitSource {
	t.Helper()
	var units []wire.UnitSource
	for _, spec := range workload.Programs() {
		units = append(units, wire.UnitSource{Name: spec.Name, Source: workload.Source(spec, false)})
	}
	return units
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func analyze(t *testing.T, base string, req wire.AnalyzeRequest) (*http.Response, *wire.AnalyzeResponse) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/analyze: %d: %s", resp.StatusCode, body)
	}
	var ar wire.AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	// The reply is rendered by wire.AppendAnalyzeResponse: it must be the
	// bytes encoding/json writes for the value it decodes to.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(&ar); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("reply is not encoding/json's bytes\nreply: %.300q\njson:  %.300q", body, want.Bytes())
	}
	return resp, &ar
}

func getStatsz(t *testing.T, base string) wire.Statsz {
	t.Helper()
	resp, err := http.Get(base + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st wire.Statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// batchCanonical runs the same units through the batch corpus driver — the
// byte-identity reference for served responses.
func batchCanonical(t *testing.T, opts core.Options, units []wire.UnitSource) []byte {
	t.Helper()
	var mem corpus.Mem
	for _, us := range units {
		u, err := corpus.FromSource(us.Name, us.Source)
		if err != nil {
			t.Fatal(err)
		}
		mem = append(mem, u)
	}
	d := corpus.NewDriver(opts, 1)
	urs, err := d.RunAll(context.Background(), mem)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := range urs {
		buf = corpus.AppendCanonical(buf, &urs[i])
	}
	return buf
}

// TestAnalyzeMatchesBatch: a served response renders canonical bytes
// identical to the batch corpus driver over the same units — the service's
// core correctness contract.
func TestAnalyzeMatchesBatch(t *testing.T) {
	_, base := startServer(t, Config{Options: testOptions()})
	units := suiteUnits(t)
	_, ar := analyze(t, base, wire.AnalyzeRequest{Units: units})
	if ar.SchemaVersion != wire.SchemaVersion {
		t.Errorf("schemaVersion = %d", ar.SchemaVersion)
	}
	if ar.BudgetClass != "exhaustive" || ar.DegradedByLoad {
		t.Errorf("unloaded server applied class %q degraded=%v", ar.BudgetClass, ar.DegradedByLoad)
	}
	got := wire.Canonical(ar)
	want := batchCanonical(t, testOptions(), units)
	if !bytes.Equal(got, want) {
		t.Errorf("served canonical bytes diverge from batch run\nserved:\n%s\nbatch:\n%s", got, want)
	}
	if ar.Stats.UnitsSolved != len(units) || ar.Stats.UnitsReused != 0 {
		t.Errorf("cold request stats %+v", ar.Stats)
	}
}

// TestAnalyzeReplyNames: unit names that JSON must escape, or that
// encoding/json copies although HTML would not, come back as sent, cold and
// warm, in replies that are encoding/json's bytes (checked by analyze).
func TestAnalyzeReplyNames(t *testing.T) {
	_, base := startServer(t, Config{Options: testOptions()})
	names := []string{"q\"uote", `back\slash`, "ctl\x01\b\n\t", "<a>&b", "ls\u2028ps\u2029", "é漢字"}
	units := tinyUnits(len(names))
	for i := range units {
		units[i].Name = names[i]
	}
	for pass := 0; pass < 2; pass++ {
		_, ar := analyze(t, base, wire.AnalyzeRequest{Units: units})
		for i, uv := range ar.Units {
			if uv.Name != names[i] || uv.Reused != (pass == 1) {
				t.Errorf("pass %d unit %d: name %q reused %t, want %q", pass, i, uv.Name, uv.Reused, names[i])
			}
		}
	}
}

// TestWarmTierReuse: a repeated request is served entirely from the shared
// store with identical bytes, and statsz accounts for the split.
func TestWarmTierReuse(t *testing.T) {
	s, base := startServer(t, Config{Options: testOptions()})
	units := suiteUnits(t)
	_, cold := analyze(t, base, wire.AnalyzeRequest{Units: units})
	_, warm := analyze(t, base, wire.AnalyzeRequest{Units: units})
	if !bytes.Equal(wire.Canonical(cold), wire.Canonical(warm)) {
		t.Error("warm response bytes diverge from cold")
	}
	if warm.Stats.UnitsReused != len(units) || warm.Stats.UnitsSolved != 0 {
		t.Errorf("warm request stats %+v", warm.Stats)
	}
	for _, uv := range warm.Units {
		if !uv.Reused {
			t.Errorf("unit %s not served from the warm tier", uv.Name)
		}
	}
	st := getStatsz(t, base)
	if st.Completed != 2 || st.UnitsReused != int64(len(units)) || st.UnitsSolved != int64(len(units)) {
		t.Errorf("statsz %+v", st)
	}
	if st.StoreUnits != s.StoreLen() || st.StoreUnits == 0 {
		t.Errorf("storeUnits = %d (StoreLen %d)", st.StoreUnits, s.StoreLen())
	}
}

// TestBudgetClasses: a minimal-class request over adversarial FM programs
// degrades to Maybe with trip provenance; after an exhaustive request
// populates the warm tier, the same minimal request is served the exact
// stored verdicts (exact results hold under every class).
func TestBudgetClasses(t *testing.T) {
	_, base := startServer(t, Config{Options: testOptions()})
	var units []wire.UnitSource
	for _, spec := range workload.FMHardPrograms() {
		units = append(units, wire.UnitSource{Name: spec.Name, Source: workload.FMHardSource(spec)})
	}
	_, minimal := analyze(t, base, wire.AnalyzeRequest{Units: units, BudgetClass: "minimal"})
	if minimal.BudgetClass != "minimal" {
		t.Fatalf("applied class %q", minimal.BudgetClass)
	}
	if minimal.Counters.Maybe == 0 || minimal.Counters.BudgetTrips == 0 {
		t.Fatalf("minimal class did not degrade adversarial programs: %+v", minimal.Counters)
	}
	maybeTripped := false
	for _, uv := range minimal.Units {
		for _, r := range uv.Results {
			if r.Outcome == "maybe" && r.Trip != "" {
				maybeTripped = true
			}
		}
	}
	if !maybeTripped {
		t.Fatal("no maybe verdict carries trip provenance")
	}

	_, full := analyze(t, base, wire.AnalyzeRequest{Units: units})
	if full.Counters.Maybe != 0 {
		t.Fatalf("exhaustive run still degraded: %+v", full.Counters)
	}
	_, served := analyze(t, base, wire.AnalyzeRequest{Units: units, BudgetClass: "minimal"})
	if served.Stats.UnitsReused != len(units) {
		t.Errorf("cross-class warm serving reused %d of %d units", served.Stats.UnitsReused, len(units))
	}
	if !bytes.Equal(wire.Canonical(served), wire.Canonical(full)) {
		t.Error("cross-class served bytes diverge from the exhaustive run")
	}
}

// TestAdmissionDegradesThenSheds holds the executor still with the gate
// hook, fills the queue, and checks the ladder: early requests keep their
// class, a half-full queue degrades, a full queue sheds with 429 +
// Retry-After — and nothing ever returns a 5xx.
func TestAdmissionDegradesThenSheds(t *testing.T) {
	const depth = 4
	s, base := startServer(t, Config{Options: testOptions(), QueueDepth: depth})
	s.gate = make(chan struct{})

	req := wire.AnalyzeRequest{Units: []wire.UnitSource{{
		Name: "tiny", Source: "for i = 1 to 10\n  a[i] = a[i-1]\nend\n",
	}}}
	type reply struct {
		status int
		ar     wire.AnalyzeResponse
	}
	replies := make(chan reply, depth+2)
	var wg sync.WaitGroup
	post := func() {
		// Sequential sends: each request must observe the previous one
		// already queued for the fill-level thresholds to be deterministic.
		resp, body := postJSON(t, base+"/v1/analyze", req)
		var ar wire.AnalyzeResponse
		json.Unmarshal(body, &ar)
		replies <- reply{resp.StatusCode, ar}
	}
	// One request occupies the executor (blocked on the gate), then `depth`
	// requests fill the queue.
	enqueue := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				post()
			}()
			waitFor(t, func() bool { return s.stats.accepted.Load() >= int64(i+2) })
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		post()
	}()
	waitFor(t, func() bool { return s.stats.accepted.Load() == 1 && len(s.queue) == 0 })
	enqueue(depth)

	// Queue full now: the next request must shed.
	resp, body := postJSON(t, base+"/v1/analyze", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue returned %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var er wire.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.RetryAfterSeconds < 1 {
		t.Errorf("shed body %s", body)
	}

	close(s.gate) // release the executor; everything queued completes
	wg.Wait()
	close(replies)

	var kept, degraded int
	for r := range replies {
		if r.status >= 500 {
			t.Fatalf("overload produced a %d", r.status)
		}
		if r.status != http.StatusOK {
			t.Fatalf("queued request returned %d", r.status)
		}
		if r.ar.DegradedByLoad {
			degraded++
			if r.ar.RequestedClass != "exhaustive" || r.ar.BudgetClass == "exhaustive" {
				t.Errorf("degraded response classes: applied %q requested %q", r.ar.BudgetClass, r.ar.RequestedClass)
			}
		} else {
			kept++
		}
	}
	// The executor-held request and the early fills keep their class; the
	// fills at >= depth/2 queue occupancy degrade.
	if kept == 0 || degraded == 0 {
		t.Errorf("kept %d degraded %d, want both non-zero", kept, degraded)
	}
	st := getStatsz(t, base)
	if st.Shed != 1 || st.Degraded != int64(degraded) || st.Completed != int64(kept+degraded) {
		t.Errorf("statsz %+v (degraded %d kept %d)", st, degraded, kept)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStaleStoreAtBoot: a store file written under an older semantics
// version boots an empty warm tier that reports the file, and the first
// snapshot replaces it.
func TestStaleStoreAtBoot(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "warm.store")
	stale := binary.AppendUvarint([]byte(persist.StoreFile.Magic), persist.FormatVersion)
	stale = binary.AppendUvarint(stale, persist.SemanticsVersion-1)
	if err := os.WriteFile(storePath, stale, 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Options: testOptions(), StorePath: storePath})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StaleStore(); !errors.Is(err, persist.ErrStale) || s.StoreLen() != 0 {
		t.Fatalf("StaleStore() = %v with %d units, want persist.ErrStale and an empty tier", err, s.StoreLen())
	}
	if err := s.SaveStore(); err != nil {
		t.Fatal(err)
	}
	if _, err := corpus.OpenStore(storePath, s.baseOpts); err != nil {
		t.Fatalf("the first snapshot did not replace the stale file: %v", err)
	}
}

// TestShutdownDrainsAndPersists: Shutdown with a request still queued behind
// a held executor completes that request (drain, not drop), saves the store
// atomically, and a restarted server serves the same fingerprints from the
// warm tier without touching the analyzer.
func TestShutdownDrainsAndPersists(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "warm.store")
	units := suiteUnits(t)

	s, base := startServer(t, Config{Options: testOptions(), StorePath: storePath})
	s.gate = make(chan struct{})

	type reply struct {
		status int
		ar     wire.AnalyzeResponse
	}
	done := make(chan reply, 1)
	go func() {
		resp, body := postJSON(t, base+"/v1/analyze", wire.AnalyzeRequest{Units: units})
		var ar wire.AnalyzeResponse
		json.Unmarshal(body, &ar)
		done <- reply{resp.StatusCode, ar}
	}()
	waitFor(t, func() bool { return s.stats.accepted.Load() == 1 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// The server is draining: new work sheds while the queued request is
	// still pending.
	waitFor(t, func() bool { return s.closing.Load() })
	close(s.gate)

	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("drained request returned %d", r.status)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := os.Stat(storePath); err != nil {
		t.Fatalf("store not saved: %v", err)
	}
	want := wire.Canonical(&r.ar)

	// Restart on the same store: the whole suite must be served warm.
	s2, base2 := startServer(t, Config{Options: testOptions(), StorePath: storePath})
	if s2.StoreLen() != len(units) {
		t.Fatalf("restarted store holds %d units, want %d", s2.StoreLen(), len(units))
	}
	_, warm := analyze(t, base2, wire.AnalyzeRequest{Units: units})
	if warm.Stats.UnitsReused != len(units) || warm.Stats.UnitsSolved != 0 {
		t.Fatalf("restart stats %+v, want all units reused", warm.Stats)
	}
	if !bytes.Equal(wire.Canonical(warm), want) {
		t.Error("restarted warm bytes diverge from the pre-shutdown response")
	}
	st := getStatsz(t, base2)
	if st.UnitsReused != int64(len(units)) || st.UnitsSolved != 0 {
		t.Errorf("restart statsz %+v", st)
	}
}

// TestShutdownRetriesFailedSnapshot: a snapshot that fails (here because
// the store's directory does not exist yet) leaves the warm tier unsaved,
// so the shutdown save writes it once the directory exists — the verdicts
// gathered since the last good save are not lost.
func TestShutdownRetriesFailedSnapshot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "later")
	storePath := filepath.Join(dir, "warm.store")
	units := tinyUnits(3)

	s, base := startServer(t, Config{Options: testOptions(), StorePath: storePath})
	analyze(t, base, wire.AnalyzeRequest{Units: units})
	if err := s.SaveStore(); err == nil {
		t.Fatal("snapshot into a missing directory succeeded")
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	f, err := os.Open(storePath)
	if err != nil {
		t.Fatalf("shutdown did not retry the failed snapshot: %v", err)
	}
	defer f.Close()
	saved, err := corpus.LoadStore(f, s.baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	if saved.Len() != len(units) {
		t.Errorf("saved store holds %d units, want %d", saved.Len(), len(units))
	}
}

// TestCorpusEndpoint: /v1/corpus analyzes server-local files through the
// facade's CorpusRequest, refuses escapes from the corpus root, and is
// disabled without one.
func TestCorpusEndpoint(t *testing.T) {
	root := t.TempDir()
	specs := workload.Programs()[:3]
	var names []string
	for _, spec := range specs {
		name := spec.Name + ".loop"
		if err := os.WriteFile(filepath.Join(root, name), []byte(workload.Source(spec, false)), 0o644); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	_, base := startServer(t, Config{Options: testOptions(), CorpusRoot: root})

	resp, body := postJSON(t, base+"/v1/corpus", wire.CorpusRequest{Dir: "."})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/corpus: %d: %s", resp.StatusCode, body)
	}
	var ar wire.AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if len(ar.Units) != len(specs) {
		t.Fatalf("corpus response has %d units, want %d", len(ar.Units), len(specs))
	}
	resp2, body2 := postJSON(t, base+"/v1/corpus", wire.CorpusRequest{Files: names})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("files corpus: %d: %s", resp2.StatusCode, body2)
	}

	for _, bad := range []wire.CorpusRequest{
		{Dir: "../outside"},
		{Files: []string{"../../etc/passwd"}},
		{},
		{Dir: ".", Files: names},
		{Dir: "no-such-dir"},
	} {
		resp, body := postJSON(t, base+"/v1/corpus", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("corpus request %+v returned %d: %s", bad, resp.StatusCode, body)
		}
	}

	_, noRoot := startServer(t, Config{Options: testOptions()})
	resp3, _ := postJSON(t, noRoot+"/v1/corpus", wire.CorpusRequest{Dir: "."})
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("corpus without root returned %d", resp3.StatusCode)
	}
}

// TestClientErrorSurface: malformed requests are rejected before admission
// with the wire error shape, counted in statsz, and never 5xx.
func TestClientErrorSurface(t *testing.T) {
	_, base := startServer(t, Config{Options: testOptions()})
	cases := []struct {
		name   string
		status int
		do     func() *http.Response
	}{
		{"get-analyze", http.StatusMethodNotAllowed, func() *http.Response {
			resp, err := http.Get(base + "/v1/analyze")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
		{"bad-json", http.StatusBadRequest, func() *http.Response {
			resp, err := http.Post(base+"/v1/analyze", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}},
	}
	for _, c := range cases {
		resp := c.do()
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: %d, want %d", c.name, resp.StatusCode, c.status)
		}
	}
	src := "for i = 1 to 4\n  a[i] = a[i]\nend\n"
	for name, req := range map[string]wire.AnalyzeRequest{
		"no-units":      {},
		"bad-version":   {SchemaVersion: 99, Units: []wire.UnitSource{{Source: src}}},
		"bad-class":     {BudgetClass: "platinum", Units: []wire.UnitSource{{Source: src}}},
		"bad-cascade":   {Options: &wire.Options{Cascade: "no-such"}, Units: []wire.UnitSource{{Source: src}}},
		"parse-failure": {Units: []wire.UnitSource{{Name: "broken", Source: "for i = \n"}}},
	} {
		resp, body := postJSON(t, base+"/v1/analyze", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d: %s", name, resp.StatusCode, body)
		}
		var er wire.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" || er.SchemaVersion != wire.SchemaVersion {
			t.Errorf("%s: error body %s", name, body)
		}
	}
	st := getStatsz(t, base)
	if st.ClientErrors != 7 {
		t.Errorf("clientErrors = %d, want 7", st.ClientErrors)
	}
	if st.Accepted != 0 {
		t.Errorf("client errors reached admission: accepted = %d", st.Accepted)
	}
}

// TestDeadlineDegradesToMaybe: an aggressive request deadline produces a 200
// whose unfinished pairs are sound Maybe verdicts — wall-clock pressure is
// never an error. Deadline-tripped verdicts must not enter the warm tier.
func TestDeadlineDegradesToMaybe(t *testing.T) {
	s, base := startServer(t, Config{Options: testOptions()})
	var units []wire.UnitSource
	for _, spec := range workload.FMHardPrograms() {
		units = append(units, wire.UnitSource{Name: spec.Name, Source: workload.FMHardSource(spec)})
	}
	_, ar := analyze(t, base, wire.AnalyzeRequest{Units: units, DeadlineMillis: 1})
	tripped := map[string]bool{}
	for _, uv := range ar.Units {
		for _, r := range uv.Results {
			if !r.Exact && r.Outcome != "maybe" && r.Outcome != "unknown" {
				t.Errorf("unit %s: inexact non-degraded outcome %q", uv.Name, r.Outcome)
			}
			if r.Trip == dtest.TripDeadline.String() || r.Trip == dtest.TripCancelled.String() {
				tripped[uv.Name] = true
			}
		}
	}
	if len(tripped) == 0 {
		t.Skip("every pair finished inside a 1ms deadline")
	}
	// Clock-tripped verdicts are session-dependent and must not enter the
	// warm tier; only the cleanly finished units are stored.
	if got, want := s.StoreLen(), len(units)-len(tripped); got != want {
		t.Errorf("store holds %d units after deadline trips, want %d", got, want)
	}
}

// TestHealthz covers liveness plus the draining transition.
func TestHealthz(t *testing.T) {
	s, base := startServer(t, Config{Options: testOptions()})
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h wire.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.SchemaVersion != wire.SchemaVersion {
		t.Errorf("healthz %+v", h)
	}
	s.closing.Store(true)
	resp2, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp2.Body).Decode(&h)
	resp2.Body.Close()
	if h.Status != "draining" {
		t.Errorf("draining healthz status %q", h.Status)
	}
	s.closing.Store(false) // let Cleanup shut down normally
}

// TestOptionOverride: a request overriding the result surface is solved
// fresh (never touches the warm tier) and matches a batch run under the
// same options.
func TestOptionOverride(t *testing.T) {
	s, base := startServer(t, Config{Options: testOptions()})
	units := suiteUnits(t)
	analyze(t, base, wire.AnalyzeRequest{Units: units}) // warm the tier
	storeBefore := s.StoreLen()

	override := &wire.Options{DirectionVectors: false, Cascade: "full"}
	_, ar := analyze(t, base, wire.AnalyzeRequest{Units: units, Options: override})
	if ar.Stats.UnitsReused != 0 || ar.Stats.UnitsSolved != len(units) {
		t.Errorf("override request stats %+v, want all solved fresh", ar.Stats)
	}
	if s.StoreLen() != storeBefore {
		t.Errorf("override request changed the store: %d -> %d", storeBefore, s.StoreLen())
	}
	opts := testOptions()
	opts.DirectionVectors = false
	opts.PruneUnused = false
	opts.PruneDistance = false
	if got, want := wire.Canonical(ar), batchCanonical(t, opts, units); !bytes.Equal(got, want) {
		t.Error("override response bytes diverge from the batch run under the same options")
	}

	// An override identical to the server surface is normalized away and
	// still served warm.
	same := wire.FromCoreOptions(testOptions())
	_, warm := analyze(t, base, wire.AnalyzeRequest{Units: units, Options: &same})
	if warm.Stats.UnitsReused != len(units) {
		t.Errorf("identity override bypassed the warm tier: %+v", warm.Stats)
	}
}

// tinyUnits generates n small distinct units cheap enough for the
// race-enabled matrix tests: every unit shares one statement (so units
// solved in the same epoch produce cross-request memo hits) and carries
// one unit-specific statement (so fingerprints stay distinct).
func tinyUnits(n int) []wire.UnitSource {
	units := make([]wire.UnitSource, n)
	for i := range units {
		src := fmt.Sprintf("for i = 1 to 50\n  a[i+1] = a[i]\n  c[i+%d] = c[i]\nend\n", i+1)
		units[i] = wire.UnitSource{Name: fmt.Sprintf("tiny%d", i), Source: src}
	}
	return units
}

// coalesceJobs slices tiny units into overlapping per-request windows:
// job k holds units[2k : 2k+4], so consecutive jobs share two units — the
// shape that exercises cross-job fingerprint dedup inside one batch.
func coalesceJobs(t *testing.T) [][]wire.UnitSource {
	units := tinyUnits(10)
	var jobs [][]wire.UnitSource
	for k := 0; 2*k+4 <= len(units) && k < 4; k++ {
		jobs = append(jobs, units[2*k:2*k+4])
	}
	if len(jobs) < 3 {
		t.Fatal("unit pool too small for coalescing windows")
	}
	return jobs
}

// postOrdered posts the jobs strictly in order against a gate-held server
// (each waits until the previous one is admitted, so queue order — and
// therefore batch order — is the slice order), releases the gate, and
// returns the responses in job order.
func postOrdered(t *testing.T, s *Server, base string, jobs [][]wire.UnitSource) [][]byte {
	t.Helper()
	bodies := make([][]byte, len(jobs))
	var wg sync.WaitGroup
	for k, units := range jobs {
		wg.Add(1)
		go func(k int, units []wire.UnitSource) {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/analyze", wire.AnalyzeRequest{Units: units})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("job %d: status %d: %s", k, resp.StatusCode, body)
			}
			bodies[k] = body
		}(k, units)
		waitFor(t, func() bool { return s.stats.accepted.Load() == int64(k+1) })
	}
	close(s.gate)
	wg.Wait()
	return bodies
}

// canonicalOf renders a response body's verdicts canonically.
func canonicalOf(t *testing.T, body []byte) []byte {
	t.Helper()
	var ar wire.AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return wire.Canonical(&ar)
}

// TestCoalescingByteIdentity: N same-class jobs executed as one coalesced
// warm-analyzer batch produce responses identical to the same jobs executed
// one at a time in the same order — full-JSON identical in the serial
// configuration, canonical-verdict identical at every worker and executor
// count (per-test counters are scheduling-dependent under concurrency).
func TestCoalescingByteIdentity(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, executors := range []int{1, 2} {
			t.Run(fmt.Sprintf("workers=%d/executors=%d", workers, executors), func(t *testing.T) {
				opts := testOptions()
				opts.Workers = workers
				jobs := coalesceJobs(t)

				sA, baseA := startServer(t, Config{Options: opts, Executors: executors, MaxBatch: 8})
				sA.gate = make(chan struct{})
				batched := postOrdered(t, sA, baseA, jobs)

				// The reference: identical job sequence, coalescing disabled.
				sB, baseB := startServer(t, Config{Options: opts, MaxBatch: 1})
				serial := make([][]byte, len(jobs))
				for k, units := range jobs {
					_, body := postJSON(t, baseB+"/v1/analyze", wire.AnalyzeRequest{Units: units})
					serial[k] = body
				}
				_ = sB

				for k := range jobs {
					if !bytes.Equal(canonicalOf(t, batched[k]), canonicalOf(t, serial[k])) {
						t.Errorf("job %d: coalesced canonical bytes diverge from one-at-a-time", k)
					}
					if workers == 1 && executors == 1 && !bytes.Equal(batched[k], serial[k]) {
						t.Errorf("job %d: coalesced response JSON diverges from one-at-a-time\nbatched: %s\nserial:  %s", k, batched[k], serial[k])
					}
				}

				st := getStatsz(t, baseA)
				if executors == 1 {
					// One executor, gate-held fill: exactly one batch holding
					// every job, with the overlapping windows deduped.
					if st.Batches != 1 || st.CoalescedJobs != int64(len(jobs)-1) {
						t.Errorf("batches=%d coalescedJobs=%d, want 1 and %d", st.Batches, st.CoalescedJobs, len(jobs)-1)
					}
					if st.BatchSizeHist[len(jobs)-1] != 1 {
						t.Errorf("batchSizeHist = %v, want one batch of %d", st.BatchSizeHist, len(jobs))
					}
					if st.FingerprintDeduped == 0 {
						t.Error("overlapping windows produced no fingerprint dedup")
					}
					if st.CrossRequestMemoHits == 0 {
						t.Error("warm batch produced no cross-request memo hits")
					}
				} else if st.Batches+st.CoalescedJobs != int64(len(jobs)) {
					t.Errorf("batches=%d + coalescedJobs=%d != jobs=%d", st.Batches, st.CoalescedJobs, len(jobs))
				}
				if st.MemoEntries == 0 {
					t.Error("warm analyzer retained no memo entries")
				}
			})
		}
	}
}

// TestCoalescedCancelMidBatch: a job whose deadline expired while queued
// degrades alone inside its batch — batchmates before and after it stay
// exact and byte-identical to a batch reference, and the expired job's
// tripped units never enter the warm tier.
func TestCoalescedCancelMidBatch(t *testing.T) {
	pool := tinyUnits(6)
	before, after := pool[0:3], pool[3:6]
	var doomed []wire.UnitSource
	for _, spec := range workload.FMHardPrograms() {
		doomed = append(doomed, wire.UnitSource{Name: spec.Name, Source: workload.FMHardSource(spec)})
	}

	s, base := startServer(t, Config{Options: testOptions(), MaxBatch: 8})
	s.gate = make(chan struct{})

	type reply struct {
		status int
		body   []byte
	}
	replies := make([]reply, 3)
	var wg sync.WaitGroup
	post := func(k int, req wire.AnalyzeRequest) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := postJSON(t, base+"/v1/analyze", req)
			replies[k] = reply{resp.StatusCode, body}
		}()
		waitFor(t, func() bool { return s.stats.accepted.Load() == int64(k+1) })
	}
	post(0, wire.AnalyzeRequest{Units: before})
	post(1, wire.AnalyzeRequest{Units: doomed, DeadlineMillis: 1})
	post(2, wire.AnalyzeRequest{Units: after})
	// Let the doomed job's 1ms deadline expire while everything is queued.
	time.Sleep(20 * time.Millisecond)
	close(s.gate)
	wg.Wait()

	for k, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("job %d: status %d: %s", k, r.status, r.body)
		}
	}
	if got, want := canonicalOf(t, replies[0].body), batchCanonical(t, testOptions(), before); !bytes.Equal(got, want) {
		t.Error("batchmate before the cancelled job diverges from the batch reference")
	}
	if got, want := canonicalOf(t, replies[2].body), batchCanonical(t, testOptions(), after); !bytes.Equal(got, want) {
		t.Error("batchmate after the cancelled job diverges from the batch reference")
	}

	var doomedAR wire.AnalyzeResponse
	if err := json.Unmarshal(replies[1].body, &doomedAR); err != nil {
		t.Fatal(err)
	}
	trippedUnits := map[string]bool{}
	for _, uv := range doomedAR.Units {
		for _, r := range uv.Results {
			if r.Trip == dtest.TripDeadline.String() || r.Trip == dtest.TripCancelled.String() {
				trippedUnits[uv.Name] = true
			}
		}
	}
	if len(trippedUnits) == 0 {
		t.Skip("the doomed job finished inside its expired deadline")
	}
	// Tripped units never enter the store; the batchmates' units all do.
	if got, want := s.StoreLen(), len(before)+len(after)+len(doomed)-len(trippedUnits); got != want {
		t.Errorf("store holds %d units, want %d (tripped units must not be stored)", got, want)
	}
	st := getStatsz(t, base)
	if st.Cancelled == 0 {
		t.Error("expired job not counted as cancelled")
	}
	if st.Batches != 1 || st.CoalescedJobs != 2 {
		t.Errorf("batches=%d coalescedJobs=%d, want 1 and 2", st.Batches, st.CoalescedJobs)
	}
}

// TestCancelledClientCountsCancelled: a client that disconnects while its
// request is queued counts as cancelled in statsz — never a server error.
func TestCancelledClientCountsCancelled(t *testing.T) {
	s, base := startServer(t, Config{Options: testOptions()})
	s.gate = make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	// The 20ms deadline backstops the disconnect: by the time the gate
	// opens the job's context is dead either way, so the executor's
	// classification is what is under test, not propagation timing.
	buf, err := json.Marshal(wire.AnalyzeRequest{Units: tinyUnits(4), DeadlineMillis: 20})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/analyze", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return s.stats.accepted.Load() == 1 })
	cancel() // client walks away while the job is queued
	<-done
	time.Sleep(50 * time.Millisecond) // past the deadline backstop
	close(s.gate)

	waitFor(t, func() bool { return s.stats.completed.Load() == 1 })
	st := getStatsz(t, base)
	if st.Cancelled != 1 {
		t.Errorf("cancelled = %d, want 1", st.Cancelled)
	}
	if st.Completed != 1 || st.Shed != 0 || st.ClientErrors != 0 {
		t.Errorf("statsz %+v", st)
	}
}

// TestMemoEviction: a warm analyzer over its memo bound drops its tables
// after the batch (statsz meters the epoch restart) and keeps serving
// byte-identical responses — eviction is a memory policy, never a result
// change.
func TestMemoEviction(t *testing.T) {
	s, base := startServer(t, Config{Options: testOptions(), MaxMemoEntries: 1})
	units := tinyUnits(8)

	_, cold := analyze(t, base, wire.AnalyzeRequest{Units: units})
	st := getStatsz(t, base)
	if st.MemoEvictions == 0 {
		t.Fatalf("MaxMemoEntries=1 triggered no eviction: %+v", st)
	}
	if st.MemoEntries != 0 {
		t.Errorf("memoEntries = %d after eviction, want 0", st.MemoEntries)
	}

	// The store is untouched by eviction; a repeat is served warm and
	// byte-identical.
	_, warm := analyze(t, base, wire.AnalyzeRequest{Units: units})
	if warm.Stats.UnitsReused != len(units) {
		t.Errorf("post-eviction repeat stats %+v, want all reused", warm.Stats)
	}
	if !bytes.Equal(wire.Canonical(cold), wire.Canonical(warm)) {
		t.Error("post-eviction warm bytes diverge")
	}

	// Fresh work after the epoch restart still matches the batch reference.
	fresh := tinyUnits(16)[8:]
	_, ar := analyze(t, base, wire.AnalyzeRequest{Units: fresh})
	if got, want := wire.Canonical(ar), batchCanonical(t, testOptions(), fresh); !bytes.Equal(got, want) {
		t.Error("post-eviction solve diverges from the batch reference")
	}
	_ = s
}
