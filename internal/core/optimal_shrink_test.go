package core

import (
	"math"
	"testing"

	"nashlb/internal/game"
	"nashlb/internal/numeric"
	"nashlb/internal/rng"
)

// optimalResumming is OPTIMAL with the straightforward shrink loop: every
// candidate prefix re-sums its rates and square roots in full, which is
// O(n^2) when most computers are dropped. It is the reference Optimal's
// single forward fold must reproduce bit for bit.
func optimalResumming(available []float64, arrival float64) (game.Strategy, error) {
	var usable []int
	var capSum numeric.Accumulator
	for j, a := range available {
		if a > 0 {
			usable = append(usable, j)
			capSum.Add(a)
		}
	}
	if len(usable) == 0 || arrival >= capSum.Value() {
		return nil, ErrInsufficientCapacity
	}
	rates := make([]float64, len(usable))
	for k, j := range usable {
		rates[k] = available[j]
	}
	perm := numeric.ArgsortDescending(rates)
	sorted := numeric.Permute(rates, perm)
	sqrts := make([]float64, len(sorted))
	for k, a := range sorted {
		sqrts[k] = math.Sqrt(a)
	}
	level := func(c int) float64 {
		return (numeric.Sum(sorted[:c]) - arrival) / numeric.Sum(sqrts[:c])
	}
	c := len(sorted)
	t := level(c)
	for c > 1 && t >= sqrts[c-1] {
		c--
		t = level(c)
	}
	s := make(game.Strategy, len(available))
	if c == 1 {
		s[usable[perm[0]]] = 1
		return s, nil
	}
	var total numeric.Accumulator
	for k := 0; k < c; k++ {
		frac := numeric.ClampNonNegative((sorted[k]-t*sqrts[k])/arrival, 1e-9)
		s[usable[perm[k]]] = frac
		total.Add(frac)
	}
	tv := total.Value()
	if !(tv > 0) || math.IsInf(tv, 0) || math.IsNaN(tv) {
		for j := range s {
			s[j] = 0
		}
		s[usable[perm[0]]] = 1
		return s, nil
	}
	if tv != 1 {
		for j := range s {
			if s[j] > 0 {
				s[j] /= tv
			}
		}
	}
	return s, nil
}

// TestOptimalMatchesResummingShrink pins Optimal's prefix-sum shrink loop to
// the re-summing reference bitwise, on seeded inputs mixing exact ties,
// non-positive (unusable) rates and rates spread across e^-10..e^10, with
// arrivals from a sliver of the capacity (most computers dropped) to nearly
// all of it.
func TestOptimalMatchesResummingShrink(t *testing.T) {
	r := rng.New(0x5eed)
	ties := []float64{0.5, 3, 3, 17, 250}
	compared := 0
	for trial := 0; trial < 3000; trial++ {
		n := 1 + r.Intn(8)
		if trial%4 == 0 {
			n = 1 + r.Intn(400)
		}
		a := make([]float64, n)
		var capacity float64
		for j := range a {
			switch r.Intn(6) {
			case 0:
				a[j] = ties[r.Intn(len(ties))]
			case 1:
				a[j] = -r.Uniform(0, 5) * float64(r.Intn(2))
			default:
				a[j] = math.Exp(r.Uniform(-10, 10))
			}
			if a[j] > 0 {
				capacity += a[j]
			}
		}
		if capacity == 0 {
			continue
		}
		lambda := capacity * math.Exp(r.Uniform(math.Log(1e-6), math.Log(0.999)))
		got, gotErr := Optimal(a, lambda)
		want, wantErr := optimalResumming(a, lambda)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("trial %d: error %v, reference error %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d (n=%d, lambda=%g): s[%d] = %v, reference %v", trial, n, lambda, j, got[j], want[j])
			}
		}
		compared++
	}
	if compared < 1000 {
		t.Fatalf("only %d strategies compared, want >= 1000", compared)
	}
}
