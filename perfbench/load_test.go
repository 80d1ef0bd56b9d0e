package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"nashlb/internal/rng"
)

// stubGateway answers /submit like the gateway does, instantly, except
// that the stallAt-th request (1-based) sleeps for stall first.
func stubGateway(t *testing.T, stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		user, err := strconv.Atoi(r.URL.Query().Get("user"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, `{"user":%d,"backend":0,"service_s":1e-6,"elapsed_s":2e-6}`, user)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func onlyUser(*rng.Stream) int { return 0 }

// A stall in the server must show in the latency timed from the intended
// send: every request due during the stall waits behind it. Timed from the
// actual send, only the stalled request itself would be slow.
func TestOpenLoopChargesStallToDelayedRequests(t *testing.T) {
	const rate, seconds = 1000.0, 1.0
	const stall = 200 * time.Millisecond
	stream := rng.New(7)
	sched := poissonSchedule(rate, seconds, stream, onlyUser)
	stallAt := int64(100 + stream.Intn(len(sched.at)/2))
	srv := stubGateway(t, stallAt, stall)
	client := newLoadClient(1)
	defer client.CloseIdleConnections()

	st := openLoop(client, newLoadTarget(srv.URL, 1, 1), 1, sched, time.Now(), newTracer(false))
	if st.failed != 0 || len(st.problems) != 0 {
		t.Fatalf("failed=%d problems=%v", st.failed, st.problems)
	}
	var fromDue, fromSend []float64
	for _, s := range st.samples {
		fromDue = append(fromDue, s.lat)
		fromSend = append(fromSend, s.lat-s.wait-s.lag)
	}
	// About rate*stall requests fall due during the stall; the p99 of the
	// latency from the due time must carry a good part of the stall.
	if p99 := quantile(fromDue, 0.99); p99 < 0.1 {
		t.Errorf("p99 from intended send %.1f ms, want >= 100 ms after a %v stall", p99*1e3, stall)
	}
	if p99 := quantile(fromSend, 0.99); p99 > 0.05 {
		t.Errorf("p99 from actual send %.1f ms; the stall should hit one request only", p99*1e3)
	}
	if quantile(fromDue, 1) < stall.Seconds() {
		t.Errorf("the stalled request itself took %.1f ms, want >= %v", quantile(fromDue, 1)*1e3, stall)
	}
}

// The schedule keeps its target rate, and the open loop releases it at
// that rate when the server keeps up.
func TestOpenLoopAchievesScheduleRate(t *testing.T) {
	const rate = 2000.0
	sched := poissonSchedule(rate, 5, rng.New(11), onlyUser)
	if got := float64(len(sched.at)) / 5; math.Abs(got-rate)/rate > 0.03 {
		t.Fatalf("schedule rate %.0f/s, want %.0f/s within 3%%", got, rate)
	}
	short := schedule{at: sched.at[:len(sched.at)/5], user: sched.user[:len(sched.at)/5]} // one second
	srv := stubGateway(t, 0, 0)
	client := newLoadClient(2)
	defer client.CloseIdleConnections()
	st := openLoop(client, newLoadTarget(srv.URL, 1, 1), 2, short, time.Now(), newTracer(false))
	if st.attempted != len(short.at) || st.failed != 0 {
		t.Fatalf("attempted %d of %d, failed %d", st.attempted, len(short.at), st.failed)
	}
	achieved := float64(st.attempted) / st.wall.Seconds()
	if math.Abs(achieved-rate)/rate > 0.05 {
		t.Errorf("achieved %.0f req/s, want %.0f within 5%%", achieved, rate)
	}
	if st.backlog {
		t.Error("a server that keeps up was reported as a backlog")
	}
	var lag []float64
	for _, s := range st.samples {
		lag = append(lag, s.lag)
	}
	// Go timers wake at about 1 ms granularity when the process idles.
	if p50 := quantile(lag, 0.5); p50 > 0.002 {
		t.Errorf("generator lag p50 %.2f ms, want under 2 ms", p50*1e3)
	}
}

// A server slower than the offered rate builds a backlog, which must be
// flagged: the run's numbers would describe the generator, not the system.
func TestOpenLoopFlagsBacklog(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		fmt.Fprint(w, `{"user":0,"backend":0,"service_s":0,"elapsed_s":0}`)
	}))
	defer srv.Close()
	client := newLoadClient(1)
	defer client.CloseIdleConnections()
	// 1000 req/s against one connection that serves at most ~500 req/s.
	st := openLoop(client, newLoadTarget(srv.URL, 1, 1), 1, poissonSchedule(1000, 1, rng.New(3), onlyUser), time.Now(), newTracer(false))
	if !st.backlog {
		t.Error("an overloaded generator was not flagged as a backlog")
	}
}

// Answers naming the wrong user or an out-of-range backend fail the check.
func TestSubmitChecksAnswers(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("user") {
		case "0":
			fmt.Fprint(w, `{"user":1,"backend":0,"service_s":0,"elapsed_s":0}`)
		case "1":
			fmt.Fprint(w, `{"user":1,"backend":5,"service_s":0,"elapsed_s":0}`)
		default:
			fmt.Fprint(w, `not json`)
		}
	}))
	defer srv.Close()
	tgt := newLoadTarget(srv.URL, 3, 2)
	for user := 0; user < 3; user++ {
		if ok, _, problem := submit(srv.Client(), tgt, user, false); !ok || problem == "" {
			t.Errorf("user %d: ok=%t problem=%q, want a problem", user, ok, problem)
		}
	}
}

// Self times subtract the children's coverage from a span's duration.
func TestSelfTimes(t *testing.T) {
	tr := newTracer(true)
	t0 := tr.origin
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("client.request", 0, 0, at(0), at(10))
	fwd := tr.add("gateway.forward", root, tr.traceOf(root), at(2), at(8))
	tr.add("backend.service", fwd, tr.traceOf(root), at(4), at(5))
	self := tr.selfTimes()
	for name, want := range map[string]float64{"client.request": 0.004, "gateway.forward": 0.005, "backend.service": 0.001} {
		if got := self[name]; len(got) != 1 || math.Abs(got[0]-want) > 1e-9 {
			t.Errorf("%s self time %v, want %g", name, got, want)
		}
	}
	if tr.traceOf(fwd) != root {
		t.Errorf("child trace %d, want the root's %d", tr.traceOf(fwd), root)
	}
}

// The metric lists the program prints are the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(what string, declared []struct{ Name, Unit string }, code [][2]string) {
		if len(declared) != len(code) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program %d", what, len(declared), len(code))
		}
		for i, d := range declared {
			if d.Name != code[i][0] || d.Unit != code[i][1] {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, d.Name, d.Unit, code[i][0], code[i][1])
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer)
}
