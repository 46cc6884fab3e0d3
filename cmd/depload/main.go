// Command depload is the smoke driver for depserve: it replays the
// workload suite (optionally with a LargeCorpus request) against a running
// server, or one it spawns, at a fixed request rate, then fires an
// overload burst, and counts each phase's answers by status. It exits 1 if
// a phase got a 5xx or a failed request, or was shed (429) without a single
// answer degraded by load: admission control degrades before it sheds. That
// holds for a queue of two or more and a class above the last one, since
// only a full queue sheds and the request that filled it saw the queue at
// least half full, so its class was shrunk. With -check depload also
// replays the suite once and requires the served verdicts to be
// byte-identical to a local batch run, the same canonical bytes depanalyze
// would print; with -spawn it SIGTERMs the server at the end and requires a
// clean drain. Usage errors exit 2. Service latency is measured by the
// end-to-end benchmark's serve-mixed workload (benchmark/), not here.
//
//	depload -spawn ./depserve -spawn-flags "-queue 8" -rate 40 -duration 2s \
//	        -burst 24 -check
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"exactdep/internal/core"
	"exactdep/internal/corpus"
	"exactdep/internal/wire"
	"exactdep/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// phase counts one load phase's answers by status.
type phase struct {
	requests, ok, degraded, shed, errors5xx, other int
}

func (p *phase) String() string {
	return fmt.Sprintf("%d requests, %d ok (%d degraded by load), %d shed, %d 5xx, %d failed",
		p.requests, p.ok, p.degraded, p.shed, p.errors5xx, p.other)
}

// failure says why the phase fails the smoke check, or returns "".
// canDegrade is false for the last budget class, which has no weaker class
// to shrink to.
func (p *phase) failure(canDegrade bool) string {
	switch {
	case p.errors5xx > 0 || p.other > 0:
		return "5xx or failed requests"
	case canDegrade && p.shed > 0 && p.degraded == 0:
		return "shed without degrading any request first"
	}
	return ""
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("depload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "target server address (host:port); empty with -spawn")
	spawn := fs.String("spawn", "", "spawn this depserve binary on a free port and load it")
	spawnFlags := fs.String("spawn-flags", "", "extra flags for the spawned server, space-separated")
	rate := fs.Float64("rate", 20, "rated phase: requests per second")
	duration := fs.Duration("duration", 3*time.Second, "rated phase length")
	concurrency := fs.Int("concurrency", 4, "rated phase in-flight request cap")
	class := fs.String("class", "", "budget class for rated-phase requests")
	largeNests := fs.Int("large-nests", 32, "include a LargeCorpus request of this many nests (0 = none)")
	burst := fs.Int("burst", 0, "overload phase: this many simultaneous requests (0 = skip)")
	check := fs.Bool("check", false, "replay the suite once and require byte-identity with a local batch run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*addr == "") == (*spawn == "") {
		fmt.Fprintln(stderr, "depload: set exactly one of -addr or -spawn")
		return 2
	}
	classIdx, ok := wire.ClassIndex(*class)
	if !ok {
		fmt.Fprintf(stderr, "depload: unknown budget class %q\n", *class)
		return 2
	}
	canDegrade := classIdx < len(wire.BudgetClasses)-1

	base := "http://" + *addr
	if *spawn != "" {
		srv, baseURL, err := spawnServer(*spawn, *spawnFlags, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "depload: %v\n", err)
			return 1
		}
		base = baseURL
		defer func() {
			if err := srv.stop(); err != nil {
				fmt.Fprintf(stderr, "depload: spawned server: %v\n", err)
				code = 1
			}
		}()
	}

	pool, err := requestPool(*class, *largeNests)
	if err != nil {
		fmt.Fprintf(stderr, "depload: %v\n", err)
		return 1
	}

	fail := false
	report := func(name string, p *phase) {
		fmt.Fprintf(stdout, "depload: %s: %v\n", name, p)
		if why := p.failure(canDegrade); why != "" {
			fmt.Fprintf(stderr, "depload: %s: %s\n", name, why)
			fail = true
		}
	}
	if *duration > 0 && *rate > 0 {
		report(fmt.Sprintf("rated %v at %.0f req/s", *duration, *rate),
			ratedPhase(base, pool, *rate, *duration, *concurrency))
	}
	if *burst > 0 {
		report(fmt.Sprintf("burst %d", *burst), burstPhase(base, pool, *burst))
	}
	if *check {
		same, err := checkIdentity(base)
		if err != nil {
			fmt.Fprintf(stderr, "depload: check: %v\n", err)
			return 1
		}
		if same {
			fmt.Fprintln(stdout, "depload: served suite verdicts byte-identical to the batch run")
		} else {
			fmt.Fprintln(stderr, "depload: served suite verdicts DIVERGE from the batch run")
			fail = true
		}
	}
	if fail {
		return 1
	}
	return 0
}

// requestPool builds the replay population: one request per suite program,
// one whole-suite request, the FM-hard adversarial set, and optionally one
// LargeCorpus request.
func requestPool(class string, largeNests int) ([][]byte, error) {
	var reqs []wire.AnalyzeRequest
	var suite []wire.UnitSource
	for _, spec := range workload.Programs() {
		us := wire.UnitSource{Name: spec.Name, Source: workload.Source(spec, false)}
		suite = append(suite, us)
		reqs = append(reqs, wire.AnalyzeRequest{Units: []wire.UnitSource{us}, BudgetClass: class})
	}
	reqs = append(reqs, wire.AnalyzeRequest{Units: suite, BudgetClass: class})
	var fmhard []wire.UnitSource
	for _, spec := range workload.FMHardPrograms() {
		fmhard = append(fmhard, wire.UnitSource{Name: spec.Name, Source: workload.FMHardSource(spec)})
	}
	reqs = append(reqs, wire.AnalyzeRequest{Units: fmhard, BudgetClass: class})
	if largeNests > 0 {
		var large []wire.UnitSource
		for _, spec := range workload.LargeCorpus(largeNests) {
			large = append(large, wire.UnitSource{Name: spec.Name, Source: workload.Source(spec, false)})
		}
		reqs = append(reqs, wire.AnalyzeRequest{Units: large, BudgetClass: class})
	}
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		b, err := json.Marshal(&reqs[i])
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// outcome is one response's status and whether load degraded its class.
type outcome struct {
	status   int
	degraded bool
}

func post(base string, body []byte) outcome {
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{status: -1}
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var ar struct {
			DegradedByLoad bool `json:"degradedByLoad"`
		}
		json.NewDecoder(resp.Body).Decode(&ar)
		o.degraded = ar.DegradedByLoad
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return o
}

func summarize(outcomes []outcome) *phase {
	p := &phase{requests: len(outcomes)}
	for _, o := range outcomes {
		switch {
		case o.status == http.StatusOK:
			p.ok++
			if o.degraded {
				p.degraded++
			}
		case o.status == http.StatusTooManyRequests:
			p.shed++
		case o.status >= 500:
			p.errors5xx++
		default:
			p.other++
		}
	}
	return p
}

// ratedPhase fires requests at a fixed rate with bounded concurrency,
// cycling through the pool round-robin.
func ratedPhase(base string, pool [][]byte, rate float64, duration time.Duration, concurrency int) *phase {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	if concurrency < 1 {
		concurrency = 1
	}
	ticks := make(chan int)
	var mu sync.Mutex
	var outcomes []outcome
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ticks {
				o := post(base, pool[i%len(pool)])
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
			}
		}()
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	stop := time.After(duration)
	i := 0
loop:
	for {
		select {
		case <-t.C:
			select {
			case ticks <- i: // a worker is free
				i++
			default: // all workers busy: the offered load is dropped, not queued
			}
		case <-stop:
			break loop
		}
	}
	close(ticks)
	wg.Wait()
	return summarize(outcomes)
}

// burstPhase fires n simultaneous requests — the overload probe. Every
// response must be a 200 (possibly degraded) or a shed 429, never a 5xx.
func burstPhase(base string, pool [][]byte, n int) *phase {
	outcomes := make([]outcome, n)
	var wg sync.WaitGroup
	var idx atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := int(idx.Add(1) - 1)
			outcomes[i] = post(base, pool[j%len(pool)])
		}(i)
	}
	wg.Wait()
	return summarize(outcomes)
}

// checkIdentity replays the suite once at the exhaustive class and compares
// the served canonical bytes to a local batch corpus run under depserve's
// default options.
func checkIdentity(base string) (bool, error) {
	var units []wire.UnitSource
	var mem corpus.Mem
	for _, spec := range workload.Programs() {
		src := workload.Source(spec, false)
		units = append(units, wire.UnitSource{Name: spec.Name, Source: src})
		u, err := corpus.FromSource(spec.Name, src)
		if err != nil {
			return false, err
		}
		mem = append(mem, u)
	}
	body, err := json.Marshal(wire.AnalyzeRequest{Units: units})
	if err != nil {
		return false, err
	}
	resp, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return false, fmt.Errorf("suite replay: %d: %s", resp.StatusCode, msg)
	}
	var ar wire.AnalyzeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return false, err
	}

	// The batch reference: depserve's own default options (see
	// cmd/depserve flags) without any store.
	opts := core.Options{
		DirectionVectors: true, PruneUnused: true, PruneDistance: true,
		Memoize: true, ImprovedMemo: true,
	}
	d := corpus.NewDriver(opts, 1)
	urs, err := d.RunAll(context.Background(), mem)
	if err != nil {
		return false, err
	}
	var want []byte
	for i := range urs {
		want = corpus.AppendCanonical(want, &urs[i])
	}
	return bytes.Equal(wire.Canonical(&ar), want), nil
}

// spawnedServer is a depserve child process.
type spawnedServer struct {
	cmd  *exec.Cmd
	done chan error
}

// spawnServer boots a depserve binary on a free port and parses the bound
// address from its "listening on" line.
func spawnServer(bin, extraFlags string, stderr io.Writer) (*spawnedServer, string, error) {
	args := []string{"-addr", "127.0.0.1:0"}
	if extraFlags != "" {
		args = append(args, strings.Fields(extraFlags)...)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "depserve: listening on "); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, "", fmt.Errorf("spawned server at %s never reported its address", bin)
	}
	s := &spawnedServer{cmd: cmd, done: make(chan error, 1)}
	go func() {
		// Keep draining stdout so the child never blocks on a full pipe.
		for sc.Scan() {
		}
		s.done <- cmd.Wait()
	}()
	return s, "http://" + addr, nil
}

// stop drains the spawned server with SIGTERM and requires a clean exit —
// the real-process graceful-shutdown check.
func (s *spawnedServer) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		return fmt.Errorf("did not drain within 60s after SIGTERM")
	}
}
