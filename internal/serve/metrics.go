package serve

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"nashlb/internal/game"
	"nashlb/internal/megascale"
	"nashlb/internal/stats"
)

// Histogram shape for per-class response times: 100µs to 100s, ~10%
// relative resolution per bucket (log-bucketed, fixed memory).
const (
	histLo     = 1e-4
	histHi     = 100.0
	histGrowth = 1.1
)

// gatewayMetrics aggregates the gateway's observability state: per-backend
// counters and gauges, admission outcomes, and one response-time histogram
// per user class. A class is the set of users with bitwise-equal arrival
// rate phi_i — the classes megascale.FromSystem aggregates for the solver,
// numbered in order of first occurrence. Such users are interchangeable in
// the game (NASH gives them one strategy and one response time D_i), so
// latency memory and /metrics cardinality grow with the class count, never
// with the user count.
type gatewayMetrics struct {
	backendRequests []atomic.Int64 // forwarded and answered 200
	backendRejects  []atomic.Int64 // backend said queue-full (503)
	backendErrors   []atomic.Int64 // transport failures after retries
	queueDepth      []atomic.Int64 // last polled depth gauge
	connOpened      []atomic.Int64 // fresh dials per backend pool (transport dialer)
	connAttempts    []atomic.Int64 // requests entering each backend pool
	userAdmitted    []atomic.Int64 // admitted requests per user (arrival estimation)
	admitted        atomic.Int64
	rejectedRate    atomic.Int64 // token bucket said no
	rejectedSat     atomic.Int64 // estimated rho_j >= 1 everywhere
	rejectedUser    atomic.Int64 // malformed/unknown user id
	rejectedDrain   atomic.Int64 // refused because the gateway is draining
	rebalances      atomic.Int64
	polls           atomic.Int64
	shed            atomic.Int64 // degraded-mode 503s (load shed)
	reequils        atomic.Int64 // health-driven routing installs
	tableInstalls   atomic.Int64 // control-plane routing tables installed
	breakerOpens    atomic.Int64 // breaker trips to open
	retryDenied     atomic.Int64 // retries refused by the retry budget

	classOf []int32           // user -> class, fixed at construction
	classes []megascale.Class // member count and phi per class

	mu    sync.Mutex
	hists []*stats.LogHistogram // per class, seconds; guarded by mu
}

// newGatewayMetrics sizes the accounting for nBackends backends and the
// users whose arrival rates are given, deriving each user's class once.
func newGatewayMetrics(nBackends int, arrivals []float64) *gatewayMetrics {
	cs, userToClass := megascale.FromSystem(&game.System{Arrivals: arrivals})
	m := &gatewayMetrics{
		backendRequests: make([]atomic.Int64, nBackends),
		backendRejects:  make([]atomic.Int64, nBackends),
		backendErrors:   make([]atomic.Int64, nBackends),
		queueDepth:      make([]atomic.Int64, nBackends),
		connOpened:      make([]atomic.Int64, nBackends),
		connAttempts:    make([]atomic.Int64, nBackends),
		userAdmitted:    make([]atomic.Int64, len(arrivals)),
		classOf:         make([]int32, len(arrivals)),
		classes:         cs.Classes,
		hists:           make([]*stats.LogHistogram, len(cs.Classes)),
	}
	for i, c := range userToClass {
		m.classOf[i] = int32(c)
	}
	for c := range m.hists {
		m.hists[c] = stats.NewLogHistogram(histLo, histHi, histGrowth)
	}
	return m
}

// observe records one response time in the user's class histogram. The
// path allocates nothing (TestObserveAllocs).
func (m *gatewayMetrics) observe(user int, seconds float64) {
	c := m.classOf[user]
	m.mu.Lock()
	m.hists[c].Add(seconds)
	m.mu.Unlock()
}

// classHists copies the per-class histograms under the lock, so a scrape
// formats and takes quantiles without holding up the request path.
func (m *gatewayMetrics) classHists() []*stats.LogHistogram {
	out := make([]*stats.LogHistogram, len(m.hists))
	m.mu.Lock()
	for c, h := range m.hists {
		out[c] = h.Clone()
	}
	m.mu.Unlock()
	return out
}

// Snapshot is a consistent copy of the gateway's counters for programmatic
// consumers (tests, EXT8, the loadgen report).
type Snapshot struct {
	// BackendRequests counts successfully served requests per backend —
	// the empirical routing split checked against the equilibrium s_ij.
	BackendRequests []int64
	// BackendRejects and BackendErrors count queue-full answers and
	// transport failures per backend.
	BackendRejects []int64
	BackendErrors  []int64
	// QueueDepth is the last polled jobs-in-system gauge per backend.
	QueueDepth []int64
	// ConnOpened and ConnReused count, per backend pool, connections dialed
	// fresh and warm reuses off the idle pool (attempts minus dials — the
	// dialer counts opens, so the forward path pays one atomic add, not a
	// per-request httptrace context). A healthy steady state reuses nearly
	// always.
	ConnOpened []int64
	ConnReused []int64
	// Admission is the sharded token bucket's merged view (zero when
	// admission is disabled).
	Admission AdmissionStats
	// Admitted counts requests past admission control; the Rejected*
	// fields split the refusals by reason.
	Admitted      int64
	RejectedRate  int64
	RejectedSat   int64
	RejectedUser  int64
	RejectedDrain int64
	Rebalances    int64
	Polls         int64
	// Shed counts degraded-mode refusals; Reequilibrations counts
	// health-driven routing installs; TableInstalls counts control-plane
	// (fleet) routing tables applied; BreakerOpens counts breaker trips.
	Shed             int64
	Reequilibrations int64
	TableInstalls    int64
	BreakerOpens     int64
	// RetryDenied counts retries the budget refused.
	RetryDenied int64
	// BreakerStates and Weights hold the health layer's per-backend view
	// (nil when the layer is disabled); Degraded and AdmitFraction describe
	// degraded-mode admission.
	BreakerStates []string
	Weights       []float64
	Degraded      bool
	AdmitFraction float64
	// ClassCount and ClassMeanSeconds summarize the response times per user
	// class (users with equal phi_i, numbered in order of first occurrence
	// in GatewayConfig.Arrivals); ClassP50 and ClassP99 are log-interpolated
	// histogram quantiles.
	ClassCount       []int64
	ClassMeanSeconds []float64
	ClassP50         []float64
	ClassP99         []float64
}

func (m *gatewayMetrics) snapshot() *Snapshot {
	s := &Snapshot{
		BackendRequests:  make([]int64, len(m.backendRequests)),
		BackendRejects:   make([]int64, len(m.backendRejects)),
		BackendErrors:    make([]int64, len(m.backendErrors)),
		QueueDepth:       make([]int64, len(m.queueDepth)),
		ConnOpened:       make([]int64, len(m.connOpened)),
		ConnReused:       make([]int64, len(m.connAttempts)),
		Admitted:         m.admitted.Load(),
		RejectedRate:     m.rejectedRate.Load(),
		RejectedSat:      m.rejectedSat.Load(),
		RejectedUser:     m.rejectedUser.Load(),
		RejectedDrain:    m.rejectedDrain.Load(),
		Rebalances:       m.rebalances.Load(),
		Polls:            m.polls.Load(),
		Shed:             m.shed.Load(),
		Reequilibrations: m.reequils.Load(),
		TableInstalls:    m.tableInstalls.Load(),
		BreakerOpens:     m.breakerOpens.Load(),
		RetryDenied:      m.retryDenied.Load(),
	}
	for j := range s.BackendRequests {
		s.BackendRequests[j] = m.backendRequests[j].Load()
		s.BackendRejects[j] = m.backendRejects[j].Load()
		s.BackendErrors[j] = m.backendErrors[j].Load()
		s.QueueDepth[j] = m.queueDepth[j].Load()
		s.ConnOpened[j] = m.connOpened[j].Load()
		s.ConnReused[j] = connReusedOf(m.connAttempts[j].Load(), s.ConnOpened[j])
	}
	hists := m.classHists()
	s.ClassCount = make([]int64, len(hists))
	s.ClassMeanSeconds = make([]float64, len(hists))
	s.ClassP50 = make([]float64, len(hists))
	s.ClassP99 = make([]float64, len(hists))
	for c, h := range hists {
		s.ClassCount[c] = h.N()
		s.ClassMeanSeconds[c] = h.Mean()
		s.ClassP50[c] = h.Quantile(0.5)
		s.ClassP99[c] = h.Quantile(0.99)
	}
	return s
}

// render writes the Prometheus-style text exposition of every metric.
func (m *gatewayMetrics) render(b *strings.Builder) {
	w := func(format string, args ...any) { fmt.Fprintf(b, format, args...) }

	w("# HELP nashgate_admitted_total Requests past admission control.\n")
	w("# TYPE nashgate_admitted_total counter\n")
	w("nashgate_admitted_total %d\n", m.admitted.Load())

	w("# HELP nashgate_rejected_total Requests refused, by reason.\n")
	w("# TYPE nashgate_rejected_total counter\n")
	w("nashgate_rejected_total{reason=%q} %d\n", "ratelimit", m.rejectedRate.Load())
	w("nashgate_rejected_total{reason=%q} %d\n", "saturated", m.rejectedSat.Load())
	w("nashgate_rejected_total{reason=%q} %d\n", "bad_user", m.rejectedUser.Load())
	w("nashgate_rejected_total{reason=%q} %d\n", "shed", m.shed.Load())
	w("nashgate_rejected_total{reason=%q} %d\n", "draining", m.rejectedDrain.Load())

	w("# HELP nashgate_backend_requests_total Served requests per backend.\n")
	w("# TYPE nashgate_backend_requests_total counter\n")
	for j := range m.backendRequests {
		w("nashgate_backend_requests_total{backend=\"%d\"} %d\n", j, m.backendRequests[j].Load())
	}
	w("# HELP nashgate_backend_rejects_total Queue-full answers per backend.\n")
	w("# TYPE nashgate_backend_rejects_total counter\n")
	for j := range m.backendRejects {
		w("nashgate_backend_rejects_total{backend=\"%d\"} %d\n", j, m.backendRejects[j].Load())
	}
	w("# HELP nashgate_backend_errors_total Transport failures per backend.\n")
	w("# TYPE nashgate_backend_errors_total counter\n")
	for j := range m.backendErrors {
		w("nashgate_backend_errors_total{backend=\"%d\"} %d\n", j, m.backendErrors[j].Load())
	}
	w("# HELP nashgate_backend_queue_depth Last polled jobs in system.\n")
	w("# TYPE nashgate_backend_queue_depth gauge\n")
	for j := range m.queueDepth {
		w("nashgate_backend_queue_depth{backend=\"%d\"} %d\n", j, m.queueDepth[j].Load())
	}
	w("# HELP nashgate_backend_conns_total Backend-pool connections by state (opened = dialed fresh, reused = warm from the idle pool).\n")
	w("# TYPE nashgate_backend_conns_total counter\n")
	for j := range m.connOpened {
		opened := m.connOpened[j].Load()
		w("nashgate_backend_conns_total{backend=\"%d\",state=%q} %d\n", j, "opened", opened)
		w("nashgate_backend_conns_total{backend=\"%d\",state=%q} %d\n", j, "reused", connReusedOf(m.connAttempts[j].Load(), opened))
	}

	w("# HELP nashgate_rebalances_total Routing-table hot swaps installed.\n")
	w("# TYPE nashgate_rebalances_total counter\n")
	w("nashgate_rebalances_total %d\n", m.rebalances.Load())
	w("# HELP nashgate_polls_total Queue-depth polling sweeps completed.\n")
	w("# TYPE nashgate_polls_total counter\n")
	w("nashgate_polls_total %d\n", m.polls.Load())
	w("# HELP nashgate_reequilibrations_total Health-driven routing installs.\n")
	w("# TYPE nashgate_reequilibrations_total counter\n")
	w("nashgate_reequilibrations_total %d\n", m.reequils.Load())
	w("# HELP nashgate_table_installs_total Control-plane routing tables applied.\n")
	w("# TYPE nashgate_table_installs_total counter\n")
	w("nashgate_table_installs_total %d\n", m.tableInstalls.Load())
	w("# HELP nashgate_breaker_opens_total Circuit-breaker trips to open.\n")
	w("# TYPE nashgate_breaker_opens_total counter\n")
	w("nashgate_breaker_opens_total %d\n", m.breakerOpens.Load())
	w("# HELP nashgate_retry_denied_total Retries refused by the retry budget.\n")
	w("# TYPE nashgate_retry_denied_total counter\n")
	w("nashgate_retry_denied_total %d\n", m.retryDenied.Load())

	w("# HELP nashgate_user_class_members Users per class (users with equal arrival rate phi).\n")
	w("# TYPE nashgate_user_class_members gauge\n")
	for c, cl := range m.classes {
		w("nashgate_user_class_members{class=\"%d\",phi=\"%g\"} %d\n", c, cl.Phi, cl.Count)
	}

	w("# HELP nashgate_response_seconds Gateway-side response time per user class.\n")
	w("# TYPE nashgate_response_seconds histogram\n")
	for c, h := range m.classHists() {
		// Only emit non-empty buckets (plus +Inf) to keep the exposition
		// compact; cumulative counts stay correct because CumulativeLE
		// includes everything below each bound.
		for k := 0; k < h.Buckets(); k++ {
			if h.Count(k) == 0 {
				continue
			}
			w("nashgate_response_seconds_bucket{class=\"%d\",le=%q} %d\n",
				c, formatBound(h.Bound(k+1)), h.CumulativeLE(k))
		}
		w("nashgate_response_seconds_bucket{class=\"%d\",le=\"+Inf\"} %d\n", c, h.N())
		w("nashgate_response_seconds_sum{class=\"%d\"} %g\n", c, h.Sum())
		w("nashgate_response_seconds_count{class=\"%d\"} %d\n", c, h.N())
	}
}

// connReusedOf derives warm reuses from the attempt and dial counters; a
// failed dial consumes its attempt, so the difference never goes negative
// in steady state, but clamp anyway against mid-flight counter reads.
func connReusedOf(attempts, opened int64) int64 {
	if reused := attempts - opened; reused > 0 {
		return reused
	}
	return 0
}

func formatBound(x float64) string {
	if math.IsInf(x, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%.6g", x)
}
