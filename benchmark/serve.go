package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/lang"
	"exactdep/internal/opt"
	"exactdep/internal/refs"
	"exactdep/internal/wire"
	"exactdep/internal/workload"
)

// serve-mixed: depserve under independent IDE clients, open loop at a
// fixed rate. The server is the real depserve binary as a child process
// with its default flags plus -store pointing at a seeded warm-tier
// snapshot; the generator posts one 128-nest program per request over at
// most nproc connections, on a fixed seeded schedule of request kinds:
//
//   - repeat: a program already in the warm tier (store read);
//   - edit:   an edit of one of those (store miss, memo-warm solve, store put);
//   - new:    a program never seen (memo-cold solve, store put).
//
// Each block of scheduleBlock requests holds exactly blockRepeats repeats,
// blockEdits edits and blockNews new programs in a seeded order. Repeats
// are the fastest kind and 70% of requests, so p50 falls inside them; new
// programs are the slowest 15%, so p90 and p99 fall inside them.

const (
	warmPrograms = 256 // programs in the warm-tier snapshot: its load outweighs process start
	hotPrograms  = 32  // the warm programs the schedule repeats and edits

	scheduleBlock = 20
	blockRepeats  = 14
	blockEdits    = 3
	blockNews     = scheduleBlock - blockRepeats - blockEdits

	// serveRate is the fixed offered rate, well below saturation on a
	// 2-CPU host (which sustains 100–180 req/s of this mix), so latency
	// reflects service rather than queueing. A 25 s run sends 1,000
	// requests, enough for p99 to have 10 samples beyond it.
	serveRate = 40.0
	// newsChunk is how many new programs are drawn at once, as one
	// balanced set (see largeSpecs).
	newsChunk = 32
)

const (
	kindRepeat = iota
	kindEdit
	kindNew
)

var kindNames = [...]string{"repeat", "edit", "new"}

// request is one scheduled POST /v1/analyze.
type request struct {
	kind int
	prog program
	body []byte
}

func newRequest(kind int, p program) request {
	body, err := json.Marshal(wire.AnalyzeRequest{
		SchemaVersion: wire.SchemaVersion,
		Units:         []wire.UnitSource{{Name: p.Name, Source: p.Src}},
	})
	if err != nil {
		panic(err) // plain strings always marshal
	}
	return request{kind: kind, prog: p, body: body}
}

// scheduler draws the seeded request sequence.
type scheduler struct {
	seed  int64
	r     *rand.Rand
	hot   []program
	edits []int // next edit variant per hot program (variant 0 is the warm-up's)
	used  map[string]bool
	block []int
	news  []program // drawn, not yet scheduled
}

func newScheduler(seed int64, hot []program, used map[string]bool) *scheduler {
	s := &scheduler{seed: seed, r: newRand(seed, "serve-mixed/schedule"), hot: hot, edits: make([]int, len(hot)), used: used}
	for i := range s.edits {
		s.edits[i] = 1
	}
	return s
}

func (s *scheduler) newProgram() program {
	if len(s.news) == 0 {
		for _, spec := range largeSpecs(s.r, newsChunk, "N", s.used) {
			s.news = append(s.news, program{Name: spec.Name, Src: workload.Source(spec, false), Nests: nestsPerProgram})
		}
	}
	p := s.news[0]
	s.news = s.news[1:]
	return p
}

func (s *scheduler) next() request {
	if len(s.block) == 0 {
		for k, n := range [...]int{blockRepeats, blockEdits, blockNews} {
			for i := 0; i < n; i++ {
				s.block = append(s.block, k)
			}
		}
		s.r.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	kind := s.block[0]
	s.block = s.block[1:]
	switch kind {
	case kindRepeat:
		return newRequest(kind, s.hot[s.r.Intn(len(s.hot))])
	case kindEdit:
		j := s.r.Intn(len(s.hot))
		v := s.edits[j]
		s.edits[j]++
		return newRequest(kind, editVariant(s.seed, s.hot[j], v))
	default:
		return newRequest(kind, s.newProgram())
	}
}

func (s *scheduler) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func bodies(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i := range reqs {
		out[i] = reqs[i].body
	}
	return out
}

// depserve is the server child process.
type depserve struct {
	cmd    *exec.Cmd
	addr   string
	exited chan error
}

// startDepserve starts the binary and returns once it has printed its
// listening line.
func startDepserve(bin string, args []string) (*depserve, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &depserve{cmd: cmd, exited: make(chan error, 1)}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		io.Copy(io.Discard, br) // the drain messages; EOF when the child exits
		d.exited <- cmd.Wait()
	}()
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "depserve: listening on ")
	if err != nil || !ok {
		cmd.Process.Kill()
		<-d.exited
		return nil, fmt.Errorf("depserve did not start: %q %v", line, err)
	}
	d.addr = addr
	return d, nil
}

func (d *depserve) pid() int { return d.cmd.Process.Pid }

func (d *depserve) url(path string) string { return "http://" + d.addr + path }

// stop asks the server to drain and waits for it to exit.
func (d *depserve) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-d.exited:
		// depserve installs its SIGTERM handler just after printing its
		// listening line; a stop that lands before that (a set-up repeat
		// on a busy host) ends the process by the signal's default
		// action, which is just as final.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("depserve did not drain within 60s; killed")
	}
}

// waitHealthy polls /v1/healthz until it answers 200.
func waitHealthy(client *http.Client, d *depserve) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.url("/v1/healthz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("depserve at %s not healthy after 30s: %v", d.addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func getStatsz(client *http.Client, d *depserve) (wire.Statsz, error) {
	var s wire.Statsz
	resp, err := client.Get(d.url("/v1/statsz"))
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// buildSnapshot solves the warm programs into a fresh store under the
// server's configuration and writes the snapshot depserve loads.
func buildSnapshot(path string, opts core.Options, warm []program) ([]byte, error) {
	units := make(corpus.Mem, len(warm))
	for i, p := range warm {
		u, err := corpus.FromSource(p.Name, p.Src)
		if err != nil {
			return nil, err
		}
		units[i] = u
	}
	d := corpus.NewDriver(opts, core.PipelineWorkers(opts.Workers))
	if err := d.SetStore(corpus.NewStore(opts)); err != nil {
		return nil, err
	}
	if err := d.Run(context.Background(), units, nil); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := d.Store().Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), os.WriteFile(path, buf.Bytes(), 0o644)
}

func runServeMixed(e *env) (*report, *outcome, error) {
	opts := measuredOptions(e.nproc)
	g := newGate(opts)
	if err := checkPinned(g, "serve-mixed", largePrograms(defaultSeed, "serve-mixed/warm", "W", hotPrograms, map[string]bool{})); err != nil {
		return nil, nil, err
	}
	used := map[string]bool{}
	warm := largePrograms(e.seed, "serve-mixed/warm", "W", warmPrograms, used)
	hot := warm[:hotPrograms]
	storePath := filepath.Join(e.dir, "serve.store")
	snapshot, err := buildSnapshot(storePath, opts, warm)
	if err != nil {
		return nil, nil, err
	}

	// Request bodies are generated before anything is timed.
	sched := newScheduler(e.seed, hot, used)
	var warmup []request
	for _, p := range hot {
		warmup = append(warmup, newRequest(kindEdit, editVariant(e.seed, p, 0)))
	}
	warmup = append(warmup, sched.take(scheduleBlock)...)
	fixed := sched.take(int(serveRate * e.seconds.Seconds()))

	args := []string{"-addr", "127.0.0.1:0", "-store", storePath}
	fmt.Fprintln(e.log, hostLine(fmt.Sprintf("depserve_flags=%q conns=%d rate=%g", strings.Join(args, " "), e.nproc, serveRate)))
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: e.nproc, MaxIdleConnsPerHost: e.nproc, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	defer client.CloseIdleConnections()

	// Set-up: child start plus snapshot load until /v1/healthz answers,
	// timed setupRepeats times (once in a traced run); the last child
	// serves the rest of the run.
	repeats := setupRepeats
	if e.trace {
		repeats = 1
	}
	var setups []float64
	var srv *depserve
	for k := 0; k < repeats; k++ {
		t0 := time.Now()
		if srv, err = startDepserve(e.depserve, args); err != nil {
			return nil, nil, err
		}
		if err := waitHealthy(client, srv); err != nil {
			srv.stop()
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < repeats-1 {
			client.CloseIdleConnections()
			if err := srv.stop(); err != nil {
				return nil, nil, err
			}
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.stop()
		}
	}()

	ctx := context.Background()
	for _, rq := range warmup {
		rec := openLoop(ctx, client, srv.url("/v1/analyze"), [][]byte{rq.body}, 1, 1)[0]
		if !rec.ok() {
			return nil, nil, fmt.Errorf("warm-up request failed: status %d %v", rec.status, rec.err)
		}
	}

	// The fixed-rate phase.
	st0, err := getStatsz(client, srv)
	if err != nil {
		return nil, nil, err
	}
	if err := resetPeakRSS(srv.pid()); err != nil {
		return nil, nil, fmt.Errorf("resetting depserve peak RSS: %w", err)
	}
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return nil, nil, err
	}
	ticks0 := readCPUTicks()
	recs := openLoop(ctx, client, srv.url("/v1/analyze"), bodies(fixed), serveRate, e.nproc)
	steal := stealPct(ticks0, readCPUTicks())
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return nil, nil, err
	}
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return nil, nil, err
	}
	st1, err := getStatsz(client, srv)
	if err != nil {
		return nil, nil, err
	}

	// An open loop is only meaningful at a rate the server sustains: a
	// growing backlog fails the run.
	verdict := judgeRate(recs, serveRate, e.seconds, e.nproc)
	client.CloseIdleConnections()
	stopped = true
	if err := srv.stop(); err != nil {
		return nil, nil, fmt.Errorf("depserve exit: %w", err)
	}

	// Verify every response after the timed phase.
	oc := &outcome{attempted: len(recs)}
	if !verdict.sustained {
		oc.fail("offered rate %g req/s not sustained: %d of %d requests within %v, backlog %d at mid-phase and %d at the end",
			serveRate, verdict.succeeded, verdict.sent, p99Limit, verdict.backlogMid, verdict.backlogEnd)
	}
	progs := make([]program, len(fixed))
	for i := range fixed {
		progs[i] = fixed[i].prog
	}
	if err := g.compute(progs); err != nil {
		return nil, nil, err
	}
	var pairs, exact int
	var respBytes float64
	for i := range recs {
		rec := &recs[i]
		if !rec.ok() {
			oc.fail("request %d (%s): status %d %v", i, kindNames[fixed[i].kind], rec.status, rec.err)
			continue
		}
		var resp wire.AnalyzeResponse
		if err := json.Unmarshal(rec.body, &resp); err != nil {
			oc.fail("request %d: undecodable response: %v", i, err)
			continue
		}
		got, want := wire.Canonical(&resp), g.expect([]program{fixed[i].prog})
		if !bytes.Equal(got, want) {
			oc.fail("request %d (%s) differs from the reference: %s", i, kindNames[fixed[i].kind], firstMismatch(got, want))
		}
		for _, u := range resp.Units {
			for _, pr := range u.Results {
				pairs++
				if pr.Exact {
					exact++
				}
			}
		}
		respBytes += float64(len(rec.body))
	}

	r := &report{}
	lat := make([]float64, len(recs))
	late := make([]float64, len(recs))
	var byKind [len(kindNames)][]float64
	for i := range recs {
		lat[i] = ms(recs[i].latency())
		late[i] = ms(recs[i].dispatched - recs[i].due)
		byKind[fixed[i].kind] = append(byKind[fixed[i].kind], lat[i])
	}
	for k, xs := range byKind {
		p90, _, _ := percentile(xs, 0.9)
		fmt.Fprintf(e.log, "kind: %-6s n=%d p50_ms=%.2f p90_ms=%.2f\n", kindNames[k], len(xs), median(xs), p90)
	}
	fmt.Fprintf(e.log, "phase: steal_pct=%.2f\n", steal)
	fmt.Fprintf(e.log, "phase: rate=%g sent=%d succeeded=%d failed=%d within_%v=%d backlog_mid=%d backlog_end=%d sustained=%v\n",
		verdict.rate, verdict.sent, verdict.sent-verdict.failed, verdict.failed, p99Limit, verdict.succeeded, verdict.backlogMid, verdict.backlogEnd, verdict.sustained)
	if !e.trace {
		r.add("setup_s", "s", median(setups), len(setups))
		r.add("p50_ms", "ms", median(lat), len(lat))
		r.addPercentile("p90_ms", lat, 0.90)
		r.addPercentile("p99_ms", lat, 0.99)
		r.skip("nests_per_s", "1/s", "reported for corpus-* only (serve-mixed offers a fixed rate)")
		r.skip("max_rate_rps", "1/s", "dropped: a rate ladder read 100-180 req/s across runs on a 2-CPU host, beyond any bound")
		r.add("cpu_ms", "ms", ms(cpu1-cpu0)/float64(len(recs)), len(recs))
		r.add("rss_mb", "MB", rss, 1)
		r.addRatio("exact_ratio", ratio{float64(exact), float64(pairs)})
		r.addRatio("fail_ratio", ratio{float64(oc.failed), float64(oc.attempted)})
		return r, oc, nil
	}

	// Traced run: replay the same bodies through the layers in-process.
	led, counts := newLedger(), &layerCounts{storeKB: float64(len(snapshot)) / 1024}
	if err := replay(ctx, opts, snapshot, warmup, fixed, recs, e.nproc, led, counts); err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	for i := range recs {
		root := tr.record(i, -1, "request", lineUnattributed, recs[i].due, recs[i].done)
		tr.record(i, root, "http", lineUnattributed, recs[i].start, recs[i].done)
	}
	if err := tr.write(filepath.Join(filepath.Dir(e.dir), fmt.Sprintf("trace-serve-mixed-%d.jsonl", e.seed))); err != nil {
		return nil, nil, err
	}
	addLedger(r, led)
	r.add("trace.overhead_pct", "%", 0, len(recs)) // client-side spans only; the replay runs after the phase
	r.add("server.unattributed_ms", "ms", led.perOpMs(lineUnattributed), led.ops)
	addCounts(r, counts)
	r.add("wire.response_kb", "KB", respBytes/1024/float64(len(recs)), len(recs))
	d := func(a, b int64) float64 { return float64(b - a) }
	r.add("server.batch_mean", "count", ratio{d(st0.Completed, st1.Completed), d(st0.Batches, st1.Batches)}.value(), len(recs))
	r.addRatio("server.coalesced_ratio", ratio{d(st0.CoalescedJobs, st1.CoalescedJobs), d(st0.Completed, st1.Completed)})
	r.addRatio("server.store_hit_ratio", ratio{d(st0.UnitsReused, st1.UnitsReused), d(st0.UnitsReused, st1.UnitsReused) + d(st0.UnitsSolved, st1.UnitsSolved)})
	r.add("server.cross_request_memo_hits", "count", d(st0.CrossRequestMemoHits, st1.CrossRequestMemoHits)/float64(len(recs)), len(recs))
	r.add("server.degraded", "count", d(st0.Degraded, st1.Degraded), 1)
	r.add("server.shed", "count", d(st0.Shed, st1.Shed), 1)
	r.add("server.cancelled", "count", d(st0.Cancelled, st1.Cancelled), 1)
	r.addTail("gen.late_ms", "ms", late)
	r.add("host.steal_pct", "%", steal, 1)
	return r, oc, nil
}

// replay runs request bodies in-process through the layers a depserve
// request crosses, in the order the server received them, against the
// same warm tier and a warm driver configured like the server's: JSON
// decode, lang.Parse, opt.Lower, refs.Pairs, fingerprint, Store.Lookup,
// then Serve for a hit or a warm Driver.RunAll and Store.Put for a miss,
// and wire.FromUnitResult plus JSON encode. The warm-up bodies replay
// first, unbooked, so the replayed memo and store match the server's.
// Each timed request's replayed layer times are booked against its client
// latency; the remainder (HTTP, admission, queue wait, executor hand-off)
// is the unattributed line.
func replay(ctx context.Context, opts core.Options, snapshot []byte, warmup, timedReqs []request, recs []sent, nproc int, l *ledger, c *layerCounts) error {
	st, err := corpus.LoadStore(bytes.NewReader(snapshot), opts)
	if err != nil {
		return err
	}
	topts := opts
	topts.TimeCascade = true
	d := corpus.NewDriver(topts, core.PipelineWorkers(topts.Workers))
	d.TimeStages = true
	var fp corpus.Fingerprinter
	one := func(body []byte) (map[string]float64, error) {
		lines := map[string]float64{}
		t := time.Now()
		lap := func(line string) {
			now := time.Now()
			lines[line] += float64(now.Sub(t))
			t = now
		}
		var req wire.AnalyzeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, err
		}
		lap("wire.decode")
		us := req.Units[0]
		prog, err := lang.Parse(us.Source)
		if err != nil {
			return nil, err
		}
		lap("lang.parse")
		c.srcBytes += float64(len(us.Source))
		c.parseNs += lines["lang.parse"]
		lu := opt.Lower(prog)
		lap("opt.lower")
		u := corpus.Unit{Name: us.Name, Cands: refs.Pairs(lu), Warnings: lu.Warnings}
		lap("refs.pairs")
		c.refsPairs += len(u.Cands)
		f := u.Fingerprint(&fp)
		lap("corpus.fingerprint")
		su, hit := st.Lookup(f)
		hit = hit && len(su.Results) == len(u.Cands)
		lap("corpus.probe")
		var ur corpus.UnitResult
		c.units++
		if hit {
			c.reused++
			ur = corpus.UnitResult{Name: u.Name, Fingerprint: f, Reused: true, Results: corpus.Serve(u.Cands, su), Cost: su.Cost, Warnings: u.Warnings}
			lap("corpus.emit")
		} else {
			d.Analyzer().ResetStats()
			urs, err := d.RunAll(ctx, corpus.Mem{u})
			if err != nil {
				return nil, err
			}
			run := float64(time.Since(t))
			for k, v := range splitDriver(run, d.Stats.Stage, &d.Analyzer().Stats, nproc) {
				lines[k] += v
			}
			c.pairsSolve += d.Stats.PairsSolved
			c.counters.Add(&d.Analyzer().Stats)
			t = time.Now()
			ur = urs[0]
			if corpus.Storable(ur.Results) {
				st.Put(ur.Fingerprint, corpus.ToStored(ur.Name, ur.Results))
			}
			lap("corpus.put")
		}
		resp := wire.AnalyzeResponse{SchemaVersion: wire.SchemaVersion, Units: []wire.UnitVerdicts{wire.FromUnitResult(&ur)}}
		if _, err := json.Marshal(&resp); err != nil {
			return nil, err
		}
		lap("wire.encode")
		return lines, nil
	}
	for _, rq := range warmup {
		if _, err := one(rq.body); err != nil {
			return err
		}
	}
	*c = layerCounts{storeKB: c.storeKB}
	for i, rq := range timedReqs {
		lines, err := one(rq.body)
		if err != nil {
			return err
		}
		c.ops++
		l.add(float64(recs[i].latency()), lines)
	}
	return nil
}
