package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-addr", "127.0.0.1:1", "-spawn", "./depserve"},
		{"-addr", "127.0.0.1:1", "-class", "lavish"},
		{"-addr", "127.0.0.1:1", "-rate", "fast"},
		{"-addr", "127.0.0.1:1", "-out", "serve.json"},
		{"-addr", "127.0.0.1:1", "-merge", "BENCH.json"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("depload %q exited %d, want 2", args, code)
		}
	}
}

// stub starts a server that answers request n (counted from 0 across
// phases) with reply(n) and returns its host:port.
func stub(t *testing.T, reply func(n int64, w http.ResponseWriter)) string {
	t.Helper()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if r.Method != http.MethodPost || r.URL.Path != "/v1/analyze" {
			http.NotFound(w, r)
			return
		}
		reply(n.Add(1)-1, w)
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func answer(w http.ResponseWriter, degraded bool) {
	if degraded {
		io.WriteString(w, `{"schemaVersion":1,"degradedByLoad":true}`)
	} else {
		io.WriteString(w, `{"schemaVersion":1}`)
	}
}

func TestSmokeExitCodes(t *testing.T) {
	serverError := func(n int64, w http.ResponseWriter) { w.WriteHeader(http.StatusInternalServerError) }
	shedOnly := func(n int64, w http.ResponseWriter) {
		if n == 0 {
			answer(w, false)
			return
		}
		w.WriteHeader(http.StatusTooManyRequests)
	}
	degradeThenShed := func(n int64, w http.ResponseWriter) {
		if n%2 == 0 {
			answer(w, true)
			return
		}
		w.WriteHeader(http.StatusTooManyRequests)
	}
	burst := []string{"-large-nests", "0", "-duration", "0", "-burst", "6"}
	both := []string{"-large-nests", "0", "-rate", "50", "-duration", "100ms", "-concurrency", "2", "-burst", "6"}
	for _, tc := range []struct {
		name  string
		reply func(int64, http.ResponseWriter)
		args  []string
		want  int
	}{
		{"5xx", serverError, burst, 1},
		{"shed without degrading", shedOnly, burst, 1},
		{"degrade then shed", degradeThenShed, both, 0},
		// The last class has nothing to shrink to, so shedding it is no
		// failure.
		{"shed at the last class", shedOnly, append([]string{"-class", "minimal"}, burst...), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-addr", stub(t, tc.reply)}, tc.args...)
			var stdout, stderr strings.Builder
			if code := run(args, &stdout, &stderr); code != tc.want {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.want, &stdout, &stderr)
			}
		})
	}
}
