package serve

import (
	"math"
	"testing"
	"time"

	"nashlb/internal/game"
	"nashlb/internal/rng"
	"nashlb/internal/testutil"
)

func TestBreakerConsecutiveTrip(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	br := newBreaker(BreakerConfig{Failures: 3, Cooldown: time.Second, now: clock.now})

	if !br.Allow() || br.State() != BreakerClosed {
		t.Fatal("fresh breaker must be closed")
	}
	for k := 0; k < 2; k++ {
		if changed := br.Report(false, "boom"); changed {
			t.Fatalf("failure %d tripped early", k+1)
		}
	}
	if !br.Report(false, "boom") {
		t.Fatal("third consecutive failure did not trip")
	}
	if br.State() != BreakerOpen || br.Allow() {
		t.Fatalf("state %v after trip, want open and not allowing", br.State())
	}

	// Cooldown gates the trial; reports while open are ignored.
	if br.Trial() {
		t.Fatal("trial granted before cooldown")
	}
	if br.Report(true, "") {
		t.Fatal("report while open changed state")
	}
	clock.advance(time.Second)
	if !br.Trial() {
		t.Fatal("trial refused after cooldown")
	}
	if br.State() != BreakerHalfOpen || br.Allow() {
		t.Fatal("half-open breaker must hold regular traffic")
	}
	if br.Trial() {
		t.Fatal("second trial granted while one is in flight")
	}

	// Trial verdict: success closes and resets.
	if !br.Report(true, "") {
		t.Fatal("trial success did not change state")
	}
	if br.State() != BreakerClosed || !br.Allow() {
		t.Fatal("breaker did not close after trial success")
	}
	if snap := br.snapshot(); snap.Consecutive != 0 || snap.Opens != 1 || snap.LastErr != "" {
		t.Fatalf("post-recovery snapshot %+v", snap)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	br := newBreaker(BreakerConfig{Failures: 1, Cooldown: time.Second, now: clock.now})

	br.Report(false, "down")
	clock.advance(time.Second)
	if !br.Trial() {
		t.Fatal("trial refused")
	}
	if !br.Report(false, "still down") {
		t.Fatal("trial failure did not change state")
	}
	if br.State() != BreakerOpen {
		t.Fatal("trial failure must reopen")
	}
	// The failed trial restarts the cooldown.
	if br.Trial() {
		t.Fatal("trial granted without a fresh cooldown")
	}
	clock.advance(time.Second)
	if !br.Trial() {
		t.Fatal("trial refused after fresh cooldown")
	}
	if got := br.snapshot().Opens; got != 2 {
		t.Fatalf("opens = %d, want 2", got)
	}
}

func TestBreakerErrorRateTrip(t *testing.T) {
	// Alternating ok/fail never builds a consecutive run, but once the
	// window fills at 50% failures the rate condition trips.
	br := newBreaker(BreakerConfig{Failures: 100, ErrorRate: 0.5, Window: 10})
	tripped := false
	for k := 0; k < 10; k++ {
		tripped = br.Report(k%2 == 0, "flaky") || tripped
	}
	if !tripped || br.State() != BreakerOpen {
		t.Fatalf("state %v after 50%% failures over a full window, want open", br.State())
	}
}

func TestBreakerPartialWindowDoesNotRateTrip(t *testing.T) {
	// 100% failure rate over a not-yet-full window must not trip: a single
	// early failure on a fresh breaker is not a rate signal.
	br := newBreaker(BreakerConfig{Failures: 100, ErrorRate: 0.5, Window: 10})
	for k := 0; k < 4; k++ {
		if br.Report(false, "early") {
			t.Fatalf("tripped on failure %d with a partial window", k+1)
		}
		br.Report(true, "")
	}
	if br.State() != BreakerClosed {
		t.Fatal("breaker should still be closed")
	}
}

func TestHealthTrackerRampAndWeights(t *testing.T) {
	h := newHealthTracker(2, BreakerConfig{Failures: 2, Cooldown: time.Hour}, 4)
	if !h.nominal() {
		t.Fatal("fresh tracker must be nominal")
	}
	if w := h.weights(); w[0] != 1 || w[1] != 1 {
		t.Fatalf("fresh weights %v", w)
	}

	// Trip backend 1.
	h.report(1, false, "x")
	if h.report(1, false, "x") != true {
		t.Fatal("second failure did not trip")
	}
	if w := h.weights(); w[0] != 1 || w[1] != 0 {
		t.Fatalf("weights after trip %v", w)
	}
	if h.nominal() || h.allow(1) || !h.allow(0) {
		t.Fatal("tripped backend still routable or tracker nominal")
	}
	// Ramps do not advance for open breakers.
	h.advanceRamps()
	if h.ramp[1] != 0 {
		t.Fatalf("ramp advanced to %d for an open breaker", h.ramp[1])
	}

	// Recovery: half-open trial success re-admits at the first ramp step.
	h.brs[1].mu.Lock()
	h.brs[1].state = BreakerHalfOpen // bypass the cooldown for the test
	h.brs[1].mu.Unlock()
	if !h.report(1, true, "") {
		t.Fatal("trial success did not change state")
	}
	if w := h.weights(); w[1] != 0.25 {
		t.Fatalf("weight after recovery %v, want first ramp step 0.25", w)
	}
	steps := 0
	for !h.nominal() && steps < 10 {
		h.advanceRamps()
		steps++
	}
	if steps != 3 {
		t.Fatalf("ramp completed in %d extra steps, want 3", steps)
	}
	if w := h.weights(); w[1] != 1 || !h.nominal() {
		t.Fatalf("weights %v nominal %v after full ramp", w, h.nominal())
	}
}

// TestRenormalizeExcludeProperty checks the survivor-renormalization
// invariants over random instances: every row stays a probability vector
// supported on the alive set, surviving fractions keep their relative
// proportions, and rows that lose all mass fall back to the capacity shares.
func TestRenormalizeExcludeProperty(t *testing.T) {
	const (
		seed      = 0x5eed11
		instances = 200
	)
	gen := testutil.InstanceGen{MaxComputers: 8, MaxUsers: 6}
	for idx := 0; idx < instances; idx++ {
		sys, err := gen.Draw(seed, idx)
		if err != nil {
			t.Fatal(err)
		}
		n, m := len(sys.Rates), len(sys.Arrivals)
		s := rng.New(rng.SplitSeed(seed, uint64(1000+idx)))

		p := game.ProportionalProfile(sys)
		// Concentrate a random row on a single machine so the fallback path
		// (no surviving mass) is exercised whenever that machine dies.
		hot := s.Intn(n)
		conc := s.Intn(m)
		for j := range p[conc] {
			p[conc][j] = 0
		}
		p[conc][hot] = 1

		// Kill a random non-empty strict subset of machines.
		alive := make([]bool, n)
		survivors := 0
		for j := range alive {
			alive[j] = s.Float64() < 0.7
			if alive[j] {
				survivors++
			}
		}
		if survivors == 0 {
			alive[s.Intn(n)] = true
			survivors = 1
		}
		if survivors == n {
			alive[hot] = false
		}

		out := renormalizeExclude(p, alive, sys.Rates)

		for i := 0; i < m; i++ {
			var sum, rest float64
			for j := 0; j < n; j++ {
				if !alive[j] {
					if out[i][j] != 0 {
						t.Fatalf("idx %d: user %d keeps mass %g on dead machine %d", idx, i, out[i][j], j)
					}
					continue
				}
				if out[i][j] < 0 {
					t.Fatalf("idx %d: negative fraction %g", idx, out[i][j])
				}
				sum += out[i][j]
				rest += p[i][j]
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("idx %d: user %d row sums to %g", idx, i, sum)
			}
			if rest > 1e-12 {
				// Proportional redistribution: out = p/rest on survivors.
				for j := 0; j < n; j++ {
					if alive[j] && math.Abs(out[i][j]-p[i][j]/rest) > 1e-9 {
						t.Fatalf("idx %d: user %d machine %d got %g, want %g",
							idx, i, j, out[i][j], p[i][j]/rest)
					}
				}
			} else {
				// Fallback: capacity shares over the survivors.
				var aliveCap float64
				for j := 0; j < n; j++ {
					if alive[j] {
						aliveCap += sys.Rates[j]
					}
				}
				for j := 0; j < n; j++ {
					if alive[j] && math.Abs(out[i][j]-sys.Rates[j]/aliveCap) > 1e-9 {
						t.Fatalf("idx %d: fallback user %d machine %d got %g, want %g",
							idx, i, j, out[i][j], sys.Rates[j]/aliveCap)
					}
				}
			}
		}
	}
}

func TestRetryBudget(t *testing.T) {
	b := newRetryBudget(0.5)
	if b.tryRetry() {
		t.Fatal("empty budget granted a retry")
	}
	b.onRequest()
	b.onRequest() // 1.0 token
	if !b.tryRetry() {
		t.Fatal("funded budget refused a retry")
	}
	if b.tryRetry() {
		t.Fatal("spent budget granted a second retry")
	}
	// Cap: max(1, 100*ratio) = 50 tokens.
	for k := 0; k < 1000; k++ {
		b.onRequest()
	}
	granted := 0
	for b.tryRetry() {
		granted++
	}
	if granted != 50 {
		t.Fatalf("capped budget granted %d retries, want 50", granted)
	}

	var disabled *retryBudget
	disabled.onRequest()
	if !disabled.tryRetry() {
		t.Fatal("nil (disabled) budget must always allow")
	}
	if newRetryBudget(0) != nil || newRetryBudget(-1) != nil {
		t.Fatal("non-positive ratio must disable the budget")
	}
}

func TestShedConfig(t *testing.T) {
	var off *shedConfig
	if !off.Allow() {
		t.Fatal("nil shedConfig (not degraded) must admit")
	}
	dead := &shedConfig{AdmitFrac: 0, RetryAfter: "1"}
	if dead.Allow() {
		t.Fatal("all-dead shedConfig must refuse")
	}

	sh := newShedConfig(8, 0.4, 20)
	if sh.AdmitFrac != 0.4 || sh.bucket == nil {
		t.Fatalf("shedConfig %+v", sh)
	}
	if sh.RetryAfter == "" || sh.RetryAfter == "0" {
		t.Fatalf("RetryAfter %q must be at least one second", sh.RetryAfter)
	}
	// Burst = admitRate/4 = 2: the bucket admits the burst then refuses.
	if !sh.Allow() || !sh.Allow() {
		t.Fatal("burst admissions refused")
	}
	if sh.Allow() {
		t.Fatal("admission beyond burst granted")
	}
}
