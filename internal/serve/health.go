package serve

import (
	"math"
	"sync"

	"nashlb/internal/game"
)

// healthTracker owns the per-backend circuit breakers plus the recovery
// ramp: a backend returning from open does not get its full equilibrium
// share back at once but re-admits capacity over rampSteps re-equilibration
// epochs (weight k/rampSteps), so a flapping backend cannot yank the whole
// equilibrium back and forth. Weight 0 means "not routable" (breaker open
// or half-open); weight 1 means fully re-admitted.
type healthTracker struct {
	brs       []*breaker
	rampSteps int

	mu         sync.Mutex
	ramp       []int // 0..rampSteps per backend; meaningful while closed
	probes     []int64
	probeFails []int64
}

func newHealthTracker(n int, cfg BreakerConfig, rampSteps int) *healthTracker {
	if rampSteps < 1 {
		rampSteps = 3
	}
	h := &healthTracker{
		brs:        make([]*breaker, n),
		rampSteps:  rampSteps,
		ramp:       make([]int, n),
		probes:     make([]int64, n),
		probeFails: make([]int64, n),
	}
	for j := range h.brs {
		h.brs[j] = newBreaker(cfg)
		h.ramp[j] = rampSteps // everyone starts fully admitted
	}
	return h
}

// report folds one outcome (request attempt or probe) into backend j's
// breaker and returns whether the breaker changed state. A trip zeroes the
// recovery ramp; a half-open trial success re-admits the backend at the
// first ramp step.
func (h *healthTracker) report(j int, ok bool, errText string) (changed bool) {
	changed = h.brs[j].Report(ok, errText)
	if changed {
		h.mu.Lock()
		if h.brs[j].State() == BreakerClosed {
			h.ramp[j] = 1
		} else {
			h.ramp[j] = 0
		}
		h.mu.Unlock()
	}
	return changed
}

// noteProbe accounts one active health probe for the /backends view.
func (h *healthTracker) noteProbe(j int, ok bool) {
	h.mu.Lock()
	h.probes[j]++
	if !ok {
		h.probeFails[j]++
	}
	h.mu.Unlock()
}

// advanceRamps moves every recovering backend one step up the re-admission
// ramp.
func (h *healthTracker) advanceRamps() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for j, br := range h.brs {
		if br.State() == BreakerClosed && h.ramp[j] < h.rampSteps {
			h.ramp[j]++
		}
	}
}

// weights returns each backend's effective capacity weight in [0, 1]:
// 0 while the breaker is open or half-open, ramp/rampSteps while closed.
func (h *healthTracker) weights() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	w := make([]float64, len(h.brs))
	for j, br := range h.brs {
		if br.State() == BreakerClosed {
			w[j] = float64(h.ramp[j]) / float64(h.rampSteps)
		}
	}
	return w
}

// allow reports whether regular traffic may route to backend j.
func (h *healthTracker) allow(j int) bool { return h.brs[j].Allow() }

// nominal reports whether every backend is closed and fully ramped — the
// state in which the health layer defers to the online re-equilibration
// loop entirely.
func (h *healthTracker) nominal() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for j, br := range h.brs {
		if br.State() != BreakerClosed || h.ramp[j] < h.rampSteps {
			return false
		}
	}
	return true
}

// renormalizeExclude returns a copy of p with every machine j marked
// !alive[j] zeroed and each user's surviving fractions rescaled to sum to
// one — the excluded machines' flow redistributed proportionally, so the
// relative preferences among survivors are preserved. A row with no
// surviving mass (the user sent everything to dead machines) falls back to
// the fallback distribution over alive machines (the caller passes the
// survivors' capacity shares). Every returned row is a probability vector
// supported on the alive set.
func renormalizeExclude(p game.Profile, alive []bool, fallback []float64) game.Profile {
	out := p.Clone()
	for i := range out {
		var rest float64
		for j, f := range out[i] {
			if alive[j] {
				rest += math.Max(f, 0)
			}
		}
		if rest > 0 {
			for j := range out[i] {
				if alive[j] {
					out[i][j] = math.Max(out[i][j], 0) / rest
				} else {
					out[i][j] = 0
				}
			}
			continue
		}
		var fb float64
		for j, w := range fallback {
			if alive[j] {
				fb += math.Max(w, 0)
			}
		}
		for j := range out[i] {
			if alive[j] && fb > 0 {
				out[i][j] = math.Max(fallback[j], 0) / fb
			} else {
				out[i][j] = 0
			}
		}
	}
	return out
}
