package serve

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"nashlb/internal/rng"
	"nashlb/internal/stats"
)

// TestClassObserveMatchesSingleStream records a stream of response times
// concurrently, from many goroutines, and checks that the per-class
// histograms equal a single-stream reference accumulation keyed by class.
func TestClassObserveMatchesSingleStream(t *testing.T) {
	const perG, goroutines = 2000, 8
	arrivals := []float64{3, 1, 3, 2, 1} // classes {0,2}, {1,4}, {3}
	classOf := []int{0, 1, 0, 2, 1}
	const classes = 3
	m := newGatewayMetrics(2, arrivals)
	ref := make([]*stats.LogHistogram, classes)
	for c := range ref {
		ref[c] = stats.NewLogHistogram(histLo, histHi, histGrowth)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(uint64(1000 + g))
			for k := 0; k < perG; k++ {
				user := r.Intn(len(arrivals))
				x := r.Exp(10) // ~100ms scale, inside the histogram range
				m.observe(user, x)
				mu.Lock()
				ref[classOf[user]].Add(x)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	snap := m.snapshot()
	if len(snap.ClassCount) != classes {
		t.Fatalf("snapshot has %d classes, want %d", len(snap.ClassCount), classes)
	}
	for c := 0; c < classes; c++ {
		if snap.ClassCount[c] != ref[c].N() {
			t.Errorf("class %d count = %d, want %d", c, snap.ClassCount[c], ref[c].N())
		}
		// Summation order differs from the reference's insertion order, so
		// demand agreement to floating-point tolerance, not bit equality.
		if rel := math.Abs(snap.ClassMeanSeconds[c]-ref[c].Mean()) / ref[c].Mean(); rel > 1e-12 {
			t.Errorf("class %d mean = %g, want %g (rel %g)", c, snap.ClassMeanSeconds[c], ref[c].Mean(), rel)
		}
	}

	got := m.classHists()
	for c := 0; c < classes; c++ {
		if got[c].N() != ref[c].N() || got[c].Underflow() != ref[c].Underflow() || got[c].Overflow() != ref[c].Overflow() {
			t.Errorf("class %d totals diverge from reference", c)
		}
		for k := 0; k < ref[c].Buckets(); k++ {
			if got[c].Count(k) != ref[c].Count(k) {
				t.Errorf("class %d bucket %d = %d, want %d", c, k, got[c].Count(k), ref[c].Count(k))
			}
		}
	}
}

// TestObserveAllocs is the allocation-regression gate for the gateway's
// request-recording path.
func TestObserveAllocs(t *testing.T) {
	m := newGatewayMetrics(4, []float64{1, 2, 3})
	x := 0.017
	if allocs := testing.AllocsPerRun(1000, func() {
		m.observe(1, x)
		x += 1e-5
	}); allocs != 0 {
		t.Errorf("observe allocates %v per record, want 0", allocs)
	}
}

// TestRenderPerClassHistogram checks the Prometheus exposition reports one
// coherent histogram per class (distinct rates here, so class k is user k).
func TestRenderPerClassHistogram(t *testing.T) {
	m := newGatewayMetrics(1, []float64{2, 1})
	for k := 0; k < 500; k++ {
		m.observe(0, 0.001+float64(k)*1e-4) // spread across buckets
	}
	m.observe(1, 0.5)
	var b strings.Builder
	m.render(&b)
	out := b.String()
	for _, want := range []string{
		`nashgate_response_seconds_count{class="0"} 500`,
		`nashgate_response_seconds_count{class="1"} 1`,
		`nashgate_response_seconds_bucket{class="0",le="+Inf"} 500`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsSeriesBoundedByClasses checks the /metrics cardinality is set
// by the user classes, not the user count: the same two classes with 2
// users and with 10 000 users expose the same number of series.
func TestMetricsSeriesBoundedByClasses(t *testing.T) {
	series := func(users int) int {
		arrivals := make([]float64, users)
		for i := range arrivals {
			arrivals[i] = float64(10 + 10*(i%2))
		}
		g, err := NewGateway(GatewayConfig{
			Backends: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
			Rates:    []float64{50, 30},
			Arrivals: arrivals,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.met.observe(0, 0.01)
		g.met.observe(1, 0.02)
		rec := httptest.NewRecorder()
		g.handleMetrics(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		n := 0
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				n++
			}
		}
		return n
	}
	small, large := series(2), series(10000)
	if small != large {
		t.Fatalf("/metrics has %d series for 2 users but %d for 10000 users in the same 2 classes", small, large)
	}
}

// BenchmarkCoreGatewayRecord measures the request path's metrics recording
// under parallel load: every recording takes the one accounting mutex, so
// this is the contended cost. The serial variant below is its uncontended
// baseline.
func BenchmarkCoreGatewayRecord(b *testing.B) {
	m := newGatewayMetrics(4, []float64{1, 2, 3})
	b.RunParallel(func(pb *testing.PB) {
		x := 0.001
		for pb.Next() {
			m.observe(1, x)
			x += 1e-6
		}
	})
}

// BenchmarkCoreGatewayRecordSerial is the uncontended baseline for the
// same path.
func BenchmarkCoreGatewayRecordSerial(b *testing.B) {
	m := newGatewayMetrics(4, []float64{1, 2, 3})
	x := 0.001
	for i := 0; i < b.N; i++ {
		m.observe(1, x)
		x += 1e-6
	}
}
