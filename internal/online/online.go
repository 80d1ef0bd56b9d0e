// Package online runs the paper's NASH algorithm against a *live* cluster:
// a re-balancing policy that, at every epoch, estimates the available
// processing rates from observed run-queue lengths (Remark 2 of the paper),
// lets each user play one best response, and installs the resulting profile.
// Plugged into the simulator's RebalancePolicy hook it closes the loop the
// paper describes — "the execution of this algorithm is initiated
// periodically" — without assuming any user knows the others' arrival rates
// or strategies.
package online

import (
	"errors"
	"fmt"

	"nashlb/internal/cluster"
	"nashlb/internal/core"
	"nashlb/internal/estimate"
	"nashlb/internal/game"
)

// Balancer is an online NASH re-balancer. It is driven by the simulator's
// event loop (single goroutine); it is not safe for concurrent use.
type Balancer struct {
	rates     []float64
	arrivals  []float64
	smoothers []*estimate.Smoother
	est       estimate.RunQueue
	// Epochs counts completed re-balance steps.
	Epochs int
	// SkippedUsers counts best responses skipped because the estimated
	// available capacity was insufficient (transient overload estimates).
	SkippedUsers int
}

// New returns a balancer for computers with the given rates and users with
// the given arrival rates. alpha in (0, 1] is the EWMA smoothing weight for
// queue-length observations (1 = use raw samples).
func New(rates, arrivals []float64, alpha float64) (*Balancer, error) {
	if len(rates) == 0 || len(arrivals) == 0 {
		return nil, errors.New("online: need computers and users")
	}
	b := &Balancer{
		rates:     append([]float64(nil), rates...),
		arrivals:  append([]float64(nil), arrivals...),
		smoothers: make([]*estimate.Smoother, len(rates)),
		est:       estimate.RunQueue{Rates: append([]float64(nil), rates...)},
	}
	for j := range b.smoothers {
		s, err := estimate.NewSmoother(alpha)
		if err != nil {
			return nil, fmt.Errorf("online: %w", err)
		}
		b.smoothers[j] = s
	}
	return b, nil
}

// Observe folds one sweep of queue-length samples into the smoothers and
// returns the current load estimates (the queue-length inversion of
// Remark 2).
func (b *Balancer) Observe(queueLens []int) ([]float64, error) {
	obs := make([]float64, len(queueLens))
	for j, l := range queueLens {
		obs[j] = b.smoothers[j].Observe(float64(l))
	}
	return b.est.Loads(obs)
}

// respond computes user i's best response against the load estimates, with
// the user's own flow under `current` added back. It returns nil when the
// estimated capacity is insufficient (transient overload estimate).
func (b *Balancer) respond(i int, loads []float64, current game.Profile) game.Strategy {
	n := len(b.rates)
	avail := make([]float64, n)
	for j := 0; j < n; j++ {
		a := b.rates[j] - loads[j] + current[i][j]*b.arrivals[i]
		if a > b.rates[j] {
			a = b.rates[j]
		}
		avail[j] = a
	}
	s, err := core.Optimal(avail, b.arrivals[i])
	if err != nil {
		b.SkippedUsers++
		return nil
	}
	return s
}

// Step performs one full re-balance round: smooth the observed queue
// lengths, invert them to load estimates, and let every user best-respond
// round-robin, each folding its strategy change back into the load
// estimate. It returns the next profile; the input is not modified. Step is
// the right primitive when observations are reliable (e.g. exact analytic
// queue lengths in tests); live clusters should prefer Policy, which
// observes often and moves one user at a time to avoid herding.
func (b *Balancer) Step(now float64, queueLens []int, current game.Profile) game.Profile {
	_ = now
	n, m := len(b.rates), len(b.arrivals)
	if len(queueLens) != n || len(current) != m {
		return nil
	}
	loads, err := b.Observe(queueLens)
	if err != nil {
		return nil
	}
	next := current.Clone()
	for i := 0; i < m; i++ {
		s := b.respond(i, loads, next)
		if s == nil {
			continue
		}
		for j := 0; j < n; j++ {
			loads[j] += (s[j] - next[i][j]) * b.arrivals[i]
			if loads[j] < 0 {
				loads[j] = 0
			}
		}
		next[i] = s
	}
	b.Epochs++
	return next
}

// Policy wraps the balancer as a simulator re-balance policy. It fires
// every observeEvery simulated seconds, folding a queue sample into the
// EWMA each time, and hands the estimate to Turns(updateEvery).
func (b *Balancer) Policy(observeEvery float64, updateEvery int) *cluster.RebalancePolicy {
	turn := b.Turns(updateEvery)
	return &cluster.RebalancePolicy{
		Every: observeEvery,
		Do: func(now float64, queueLens []int, current game.Profile) game.Profile {
			_ = now
			if len(queueLens) != len(b.rates) || len(current) != len(b.arrivals) {
				return nil
			}
			loads, _ := b.Observe(queueLens)
			return turn(loads, current)
		},
	}
}

// Turns returns the serialized best-reply discipline: it is called once
// per observation with the current load estimates (nil when the
// observation was unusable), and every updateEvery-th call ONE user
// (round-robin) recomputes its best response against them, returning the
// updated profile; other calls return nil. The one-user-at-a-time
// discipline is the paper's token ring transplanted onto a live cluster:
// simultaneous updates from a shared stale estimate herd onto the same
// computers and oscillate, while serialized updates converge.
func (b *Balancer) Turns(updateEvery int) func(loads []float64, current game.Profile) game.Profile {
	if updateEvery < 1 {
		updateEvery = 1
	}
	calls := 0
	turn := 0
	return func(loads []float64, current game.Profile) game.Profile {
		calls++
		if loads == nil || calls%updateEvery != 0 {
			return nil
		}
		i := turn
		turn = (turn + 1) % len(b.arrivals)
		s := b.respond(i, loads, current)
		if s == nil {
			return nil
		}
		next := current.Clone()
		next[i] = s
		b.Epochs++
		return next
	}
}
