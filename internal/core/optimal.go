// Package core implements the paper's primary contribution: the OPTIMAL
// best-response algorithm (Theorems 2.1 and 2.2) and the NASH distributed
// greedy best-reply algorithm (Section 3) that computes the Nash equilibrium
// of the noncooperative load-balancing game defined in internal/game.
package core

import (
	"errors"
	"fmt"
	"math"

	"nashlb/internal/game"
	"nashlb/internal/numeric"
)

// ErrInsufficientCapacity is returned when a user's arrival rate is not
// strictly below the total available processing rate it sees, so its
// best-response subproblem has no feasible point.
var ErrInsufficientCapacity = errors.New("core: arrival rate >= total available processing rate")

// ErrBadArrival is returned for non-positive or non-finite arrival rates.
var ErrBadArrival = errors.New("core: arrival rate must be positive and finite")

// Optimal solves user i's best-response optimization problem OPT_i
// (Theorem 2.1 / algorithm OPTIMAL, Theorem 2.2): given the available
// processing rates a_j = mu_j^i seen by the user and the user's total
// arrival rate lambda = phi_i, it returns the strategy s minimizing
//
//	D_i(s) = sum_j s_j / (a_j - s_j*lambda)
//
// subject to s_j >= 0 and sum_j s_j = 1.
//
// The solution has water-filling form: with computers sorted by decreasing
// available rate and c the largest prefix kept active,
//
//	t = (sum_{j<=c} a_j - lambda) / (sum_{j<=c} sqrt(a_j))
//	s_j = (a_j - t*sqrt(a_j)) / lambda   for j <= c,   s_j = 0 otherwise,
//
// where c is the minimum prefix such that t < sqrt(a_c) (the paper's
// index-c_i condition). Computers whose available rate is non-positive
// (saturated by the other users) are treated as unusable and receive zero.
//
// The returned strategy is expressed in the original computer order.
// Complexity is O(n log n) from the sort; the shrink loop is O(n).
func Optimal(available []float64, arrival float64) (game.Strategy, error) {
	n := len(available)
	if n == 0 {
		return nil, errors.New("core: no computers")
	}
	if !(arrival > 0) || math.IsInf(arrival, 0) || math.IsNaN(arrival) {
		return nil, fmt.Errorf("%w: got %g", ErrBadArrival, arrival)
	}
	// Usable computers: strictly positive available rate.
	usable := make([]int, 0, n)
	var capSum numeric.Accumulator
	for j, a := range available {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("core: invalid available rate a[%d]=%g", j, a)
		}
		if a > 0 {
			usable = append(usable, j)
			capSum.Add(a)
		}
	}
	if len(usable) == 0 || arrival >= capSum.Value() {
		return nil, fmt.Errorf("%w: lambda=%g, available=%g", ErrInsufficientCapacity, arrival, capSum.Value())
	}

	// Step 1: sort usable computers in decreasing order of available rate.
	rates := make([]float64, len(usable))
	for k, j := range usable {
		rates[k] = available[j]
	}
	perm := numeric.ArgsortDescending(rates)
	sorted := numeric.Permute(rates, perm)

	// Steps 2–3: shrink the active prefix until t < sqrt(a_c), where
	// t = (sum_{k<c} a_k - lambda) / sum_{k<c} sqrt(a_k). Both prefix sums
	// are folded once, forward: a fold stopped at length c is bitwise
	// numeric.Sum of the first c entries, so each water level is what
	// re-summing the prefix would give, without the O(n^2) cost when most
	// computers are dropped.
	m := len(sorted)
	sqrts := make([]float64, m)
	sumA := make([]float64, m)
	sumS := make([]float64, m)
	var accA, accS numeric.Accumulator
	for k, a := range sorted {
		sqrts[k] = math.Sqrt(a)
		accA.Add(a)
		accS.Add(sqrts[k])
		sumA[k], sumS[k] = accA.Value(), accS.Value()
	}
	c := m
	t := (sumA[c-1] - arrival) / sumS[c-1]
	for c > 1 && t >= sqrts[c-1] {
		c--
		t = (sumA[c-1] - arrival) / sumS[c-1]
	}

	// Step 4: assign fractions.
	s := make(game.Strategy, n)
	if c == 1 {
		// Single active computer: the whole flow goes there; computing
		// (a - t*sqrt(a))/lambda would lose the answer to cancellation
		// when a >> lambda.
		s[usable[perm[0]]] = 1
		return s, nil
	}
	var total numeric.Accumulator
	for k := 0; k < c; k++ {
		frac := (sorted[k] - t*sqrts[k]) / arrival
		frac = numeric.ClampNonNegative(frac, 1e-9)
		if frac < 0 {
			return nil, fmt.Errorf("core: internal error: negative fraction %g at sorted index %d", frac, k)
		}
		orig := usable[perm[k]]
		s[orig] = frac
		total.Add(frac)
	}
	tv := total.Value()
	if !(tv > 0) || math.IsInf(tv, 0) || math.IsNaN(tv) {
		// Catastrophic cancellation (active rates spanning hundreds of
		// orders of magnitude): fall back to the dominant computer, the
		// exact limit of the water-filling solution in that regime.
		for j := range s {
			s[j] = 0
		}
		s[usable[perm[0]]] = 1
		return s, nil
	}
	// Rounding cleanup: renormalize the active set so conservation holds to
	// machine precision, preserving the relative split.
	if tv != 1 {
		for j := range s {
			if s[j] > 0 {
				s[j] /= tv
			}
		}
	}
	return s, nil
}

// ResponseTime evaluates the user's expected response time
// D(s) = sum_j s_j/(a_j - s_j*lambda) for a strategy against available
// rates; +Inf if any used computer would be saturated.
func ResponseTime(available []float64, arrival float64, s game.Strategy) float64 {
	var acc numeric.Accumulator
	for j := range s {
		if s[j] == 0 {
			continue
		}
		rem := available[j] - s[j]*arrival
		if rem <= 0 {
			return math.Inf(1)
		}
		acc.Add(s[j] / rem)
	}
	return acc.Value()
}

// KKTResidual measures how far strategy s is from satisfying the first-order
// Kuhn–Tucker optimality conditions of the best-response subproblem. The
// marginal cost of computer j at s is
//
//	g_j(s) = a_j / (a_j - s_j*lambda)^2,
//
// and s is optimal iff there is an alpha with g_j = alpha on the support and
// g_j >= alpha off it. The residual returned is the maximum of (a) the
// spread of g_j over the support relative to alpha and (b) the worst
// relative violation alpha - g_j over zero entries. A residual near zero
// certifies optimality; it is the test hook for Theorem 2.2.
func KKTResidual(available []float64, arrival float64, s game.Strategy) float64 {
	alpha := math.Inf(1)
	var maxOn float64
	// alpha = min marginal over support; spread check over support.
	for j := range s {
		if s[j] <= 0 {
			continue
		}
		rem := available[j] - s[j]*arrival
		if rem <= 0 {
			return math.Inf(1)
		}
		g := available[j] / (rem * rem)
		if g < alpha {
			alpha = g
		}
		if g > maxOn {
			maxOn = g
		}
	}
	if math.IsInf(alpha, 1) {
		// Empty support: infinitely infeasible.
		return math.Inf(1)
	}
	res := (maxOn - alpha) / alpha
	for j := range s {
		if s[j] > 0 {
			continue
		}
		if available[j] <= 0 {
			continue // unusable computer, no KKT constraint
		}
		g := 1 / available[j] // marginal at s_j = 0
		if v := (alpha - g) / alpha; v > res {
			res = v
		}
	}
	return res
}

var _ game.BestResponse = Optimal
