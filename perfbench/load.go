package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sync"
	"time"

	"nashlb/internal/rng"
	"nashlb/internal/serve"
)

// sample is one OK /submit answer as the generator saw it. All times are
// seconds. lat is timed from the send (closed loop) or from the intended
// send (open loop); wait is the part of it spent before a connection was in
// hand, and lag how late the generator released the request.
type sample struct {
	lat, wait, lag   float64
	elapsed, service float64 // echoed by the gateway: forward time, backend work
	backend          int
	at               time.Duration // send (closed) or due (open) time, from the phase start
}

// loadStats collects one load phase: OK samples, operation counts, and the
// body-check problems found (any problem fails the workload).
type loadStats struct {
	mu        sync.Mutex
	samples   []sample
	attempted int
	failed    int
	problems  []string
	wall      time.Duration
	backlog   bool
}

func (s *loadStats) add(ok bool, sm sample, problem string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.attempted++
	switch {
	case problem != "":
		s.failed++
		if len(s.problems) < 5 {
			s.problems = append(s.problems, problem)
		}
	case !ok:
		s.failed++
	default:
		s.samples = append(s.samples, sm)
	}
}

// loadTarget is the gateway under load: its /submit URL per user and the
// number of backends a valid answer may name.
type loadTarget struct {
	urls     []string
	backends int
}

func newLoadTarget(base string, users, backends int) loadTarget {
	t := loadTarget{urls: make([]string, users), backends: backends}
	for i := range t.urls {
		t.urls[i] = fmt.Sprintf("%s/submit?user=%d", base, i)
	}
	return t
}

// newLoadClient returns the generator's client: at most conns connections.
func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// submit sends one request for user and checks the answer. ok is false for
// a transport error or a non-2xx status; problem is set when a 200 answer
// fails its check. In trace mode the wait for a pooled connection is
// measured with httptrace.
func submit(client *http.Client, tgt loadTarget, user int, traced bool) (ok bool, sm sample, problem string) {
	ctx := context.Background()
	var getConn time.Time
	if traced {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GetConn: func(string) { getConn = time.Now() },
			GotConn: func(httptrace.GotConnInfo) { sm.wait = time.Since(getConn).Seconds() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, tgt.urls[user], nil)
	if err != nil {
		return false, sm, fmt.Sprintf("request for user %d: %v", user, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, sm, ""
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, sm, ""
	}
	var sr serve.SubmitResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return true, sm, fmt.Sprintf("unparsable /submit body %q: %v", body, err)
	}
	if sr.User != user {
		return true, sm, fmt.Sprintf("asked for user %d, answer names user %d", user, sr.User)
	}
	if sr.Backend < 0 || sr.Backend >= tgt.backends {
		return true, sm, fmt.Sprintf("answer names backend %d of %d", sr.Backend, tgt.backends)
	}
	sm.backend, sm.elapsed, sm.service = sr.Backend, sr.ElapsedSeconds, sr.ServiceSeconds
	return true, sm, ""
}

// traceRequest records a request's spans: the client call, and inside it
// the gateway's forward and the backend's service, placed from the echoed
// elapsed_s and service_s (centred, since only their lengths are known).
func traceRequest(tr *tracer, parent, trace int64, sent, done time.Time, sm sample) {
	if !tr.on {
		return
	}
	id := tr.add("client.request", parent, trace, sent, done)
	trace = tr.traceOf(id)
	total := done.Sub(sent)
	fwd := time.Duration(sm.elapsed * 1e9)
	fwdStart := sent.Add((total - fwd) / 2)
	fid := tr.add("gateway.forward", id, trace, fwdStart, fwdStart.Add(fwd))
	svc := time.Duration(sm.service * 1e9)
	svcStart := fwdStart.Add((fwd - svc) / 2)
	tr.add("backend.service", fid, trace, svcStart, svcStart.Add(svc))
}

// closedLoop runs conns workers, each sending its next request as soon as
// the previous one answered, until the deadline. Each worker draws users
// from its own seeded stream; latency is timed from the send.
func closedLoop(client *http.Client, tgt loadTarget, conns int, pick func(*rng.Stream) int,
	src *rng.Source, deadline time.Time, tr *tracer) *loadStats {
	st := &loadStats{}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		stream := src.Stream(fmt.Sprintf("closed/%d", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				user := pick(stream)
				sent := time.Now()
				ok, sm, problem := submit(client, tgt, user, tr.on)
				done := time.Now()
				sm.lat = done.Sub(sent).Seconds()
				sm.at = sent.Sub(start)
				if ok && problem == "" {
					traceRequest(tr, 0, 0, sent, done, sm)
				}
				st.add(ok, sm, problem)
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	return st
}

// schedule is an open-loop arrival plan: request k is due at offset at[k]
// for user user[k].
type schedule struct {
	at   []time.Duration
	user []int32
}

// poissonSchedule draws a Poisson arrival plan at rate requests/second for
// the given length, users drawn by pick.
func poissonSchedule(rate, seconds float64, stream *rng.Stream, pick func(*rng.Stream) int) schedule {
	var s schedule
	for t := stream.Exp(rate); t < seconds; t += stream.Exp(rate) {
		s.at = append(s.at, time.Duration(t*1e9))
		s.user = append(s.user, int32(pick(stream)))
	}
	return s
}

// openLoop releases the schedule's requests at their due times, starting at
// start, to conns senders (one connection each). A request waits for a free
// sender when all are busy; its latency is timed from when it was due, so a
// stall is charged to every request it delays. The run is marked as a
// backlog when the delay before sending grows across the run: the median
// of the last quarter exceeds the first quarter's by more than 10 ms.
func openLoop(client *http.Client, tgt loadTarget, conns int, sched schedule, start time.Time, tr *tracer) *loadStats {
	st := &loadStats{}
	n := len(sched.at)
	released := make([]time.Time, n)
	delay := make([]float64, n) // due → sent
	// Sized to the whole schedule, so the releaser never blocks on a
	// stalled sender and keeps to the schedule.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queue {
				due := start.Add(sched.at[k])
				sent := time.Now()
				ok, sm, problem := submit(client, tgt, int(sched.user[k]), tr.on)
				done := time.Now()
				sm.lat = done.Sub(due).Seconds()
				sm.at = sched.at[k]
				sm.lag = released[k].Sub(due).Seconds()
				sm.wait += sent.Sub(released[k]).Seconds()
				delay[k] = sent.Sub(due).Seconds()
				if ok && problem == "" && tr.on {
					root := tr.add("bench.scheduled", 0, 0, due, done)
					tr.add("bench.queue", root, tr.traceOf(root), due, sent)
					traceRequest(tr, root, tr.traceOf(root), sent, done, sm)
				}
				st.add(ok, sm, problem)
			}
		}()
	}
	for k := 0; k < n; k++ {
		if d := time.Until(start.Add(sched.at[k])); d > 0 {
			time.Sleep(d)
		}
		// Written before the send on queue, read after the receive.
		released[k] = time.Now()
		queue <- k
	}
	close(queue)
	wg.Wait()
	st.wall = time.Since(start)
	if q := n / 4; q > 0 {
		first := median(delay[:q])
		last := median(delay[n-q:])
		st.backlog = last-first > 0.010
	}
	return st
}

// requestMetrics derives the request path's per-layer metrics from a load
// phase: self times from the spans, generator validity from the samples.
func requestMetrics(st *loadStats, self map[string][]float64) []metric {
	us := func(xs []float64, q float64) float64 { return quantile(append([]float64(nil), xs...), q) * 1e6 }
	var lag, wait []float64
	for _, s := range st.samples {
		lag = append(lag, s.lag)
		wait = append(wait, s.wait)
	}
	out := self["client.request"]
	fwd := self["gateway.forward"]
	svc := self["backend.service"]
	errRatio := float64(st.failed) / float64(max(st.attempted, 1))
	return []metric{
		{"serve.outside_forward_us_p50", "us", us(out, 0.5), len(out)},
		{"serve.outside_forward_us_p99", "us", us(out, 0.99), len(out)},
		{"serve.forward_us_p50", "us", us(fwd, 0.5), len(fwd)},
		{"serve.forward_us_p99", "us", us(fwd, 0.99), len(fwd)},
		{"serve.backend_service_us_p50", "us", us(svc, 0.5), len(svc)},
		{"serve.error_ratio", "ratio", errRatio, st.attempted},
		{"bench.samples", "count", float64(len(st.samples)), len(st.samples)},
		{"bench.gen_lag_p99_ms", "ms", quantile(lag, 0.99) * 1e3, len(lag)},
		{"bench.conn_wait_p99_ms", "ms", quantile(wait, 0.99) * 1e3, len(wait)},
	}
}

// latencyMetrics is the request-serving end-to-end set of a load phase.
// latency_p50_ms is the median, over the phase's whole one-second windows,
// of each window's median, so one slow second does not decide a run. In
// an untraced phase the report's layer metrics carry the whole phase's
// latency tail.
func latencyMetrics(st *loadStats, traced bool) (e2e, tail []metric) {
	var windows [][]float64
	lat := make([]float64, len(st.samples))
	for i, s := range st.samples {
		lat[i] = s.lat
		w := int(s.at / time.Second)
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		windows[w] = append(windows[w], s.lat)
	}
	if whole := int(st.wall / time.Second); len(windows) > whole && whole > 0 {
		windows = windows[:whole] // drop the partial last second
	}
	var p50 []float64
	for _, w := range windows {
		if len(w) > 0 {
			p50 = append(p50, quantile(w, 0.5))
		}
	}
	n := len(st.samples)
	e2e = []metric{
		{"throughput_per_s", "1/s", float64(n) / st.wall.Seconds(), n},
		{"latency_p50_ms", "ms", median(p50) * 1e3, n},
	}
	if !traced {
		tail = tailMetrics(lat)
	}
	return e2e, tail
}
