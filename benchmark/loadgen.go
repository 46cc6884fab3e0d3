package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"time"
)

// The open-loop generator. Request i is due at start + i/rate whatever
// happened before it: a request that finds every connection busy waits for
// one and is never dropped, and its latency runs from its due time, so a
// stall shows in every request due during it. The generator's own
// lateness (dispatching after the due time) is measured separately.

// sent is one request's record; times are offsets from the phase start.
type sent struct {
	due, dispatched, start, done time.Duration
	status                       int
	err                          error
	body                         []byte
}

// latency is the request's time from due to completion.
func (s *sent) latency() time.Duration { return s.done - s.due }

// ok reports a 200 with no transport error.
func (s *sent) ok() bool { return s.err == nil && s.status == http.StatusOK }

// openLoop posts bodies[i] to url at start+i/rate over at most conns
// concurrent connections and returns one record per body, after every
// request has completed.
func openLoop(ctx context.Context, client *http.Client, url string, bodies [][]byte, rate float64, conns int) []sent {
	out := make([]sent, len(bodies))
	queue := make(chan int, len(bodies)) // sized to the number of sends: dispatching never blocks
	done := make(chan struct{})
	start := time.Now()
	for w := 0; w < conns; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range queue {
				s := &out[i]
				s.start = time.Since(start)
				s.status, s.body, s.err = post(ctx, client, url, bodies[i])
				s.done = time.Since(start)
			}
		}()
	}
	for i := range bodies {
		due := time.Duration(float64(i) / rate * float64(time.Second))
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due = due
		out[i].dispatched = time.Since(start)
		queue <- i
	}
	close(queue)
	for w := 0; w < conns; w++ {
		<-done
	}
	return out
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// backlog is the number of requests due but not completed at offset t.
func backlog(recs []sent, t time.Duration) int {
	n := 0
	for i := range recs {
		if recs[i].due <= t && recs[i].done > t {
			n++
		}
	}
	return n
}

// rateVerdict judges one offered rate: it is sustained when at least
// minGood of the requests sent succeeded within p99Limit and the backlog
// did not grow over the second half of the phase.
type rateVerdict struct {
	rate                   float64
	sent                   int
	succeeded              int // 200 within the latency limit
	failed                 int // errors and non-200s
	backlogMid, backlogEnd int
	sustained              bool
}

const (
	minGood  = 0.99                   // share of requests that must meet the limit
	p99Limit = 250 * time.Millisecond // latency limit a sustained rate meets
)

func judgeRate(recs []sent, rate float64, length time.Duration, conns int) rateVerdict {
	v := rateVerdict{rate: rate, sent: len(recs)}
	for i := range recs {
		switch {
		case !recs[i].ok():
			v.failed++
		case recs[i].latency() <= p99Limit:
			v.succeeded++
		}
	}
	v.backlogMid, v.backlogEnd = backlog(recs, length/2), backlog(recs, length)
	grew := v.backlogEnd > v.backlogMid+max(conns, len(recs)/20)
	v.sustained = float64(v.succeeded) >= minGood*float64(len(recs)) && !grew
	return v
}
