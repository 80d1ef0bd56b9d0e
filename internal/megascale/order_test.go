package megascale

import (
	"math"
	"sort"
	"testing"

	"nashlb/internal/core"
	"nashlb/internal/rng"
)

// checkOrders fails unless every class's cached order is a permutation of
// its positions sorted by the canonical total order (A descending, ties by
// ascending position). Any correct sort yields exactly that permutation, so
// sortedness here means the repaired order is the one a full sort would have
// produced and everything computed from it is bitwise unchanged.
func checkOrders(t *testing.T, s *solver, label string) {
	t.Helper()
	for c := range s.classes {
		st := &s.classes[c]
		seen := make([]bool, len(st.order))
		for _, k := range st.order {
			if k < 0 || int(k) >= len(seen) || seen[k] {
				t.Fatalf("%s: class %d order %v is not a permutation", label, c, st.order)
			}
			seen[k] = true
		}
		if !sort.IsSorted(st) {
			t.Fatalf("%s: class %d order is not canonical", label, c)
		}
	}
}

// inversions counts the pairs the canonical order puts the other way round
// in st.order under the capacities a — the number of element shifts
// insertion sort needs to repair it.
func inversions(st *classState, a []float64) int {
	n := 0
	for x := range st.order {
		for y := x + 1; y < len(st.order); y++ {
			p, q := st.order[x], st.order[y]
			if a[q] > a[p] || (a[q] == a[p] && q < p) {
				n++
			}
		}
	}
	return n
}

// startProfile is Solve's starting point for init.
func startProfile(cs *ClassSystem, init core.Init) *ClassProfile {
	if init == core.InitProportional {
		return ProportionalClassProfile(cs)
	}
	return NewClassProfile(cs)
}

// runRounds drives the solver round by round, checking the orders after
// each, until the norm drops below eps or maxRounds pass.
func runRounds(t *testing.T, s *solver, eps float64, maxRounds int, label string) {
	t.Helper()
	for r := 1; r <= maxRounds; r++ {
		norm, _, err := s.round()
		if err != nil {
			t.Fatalf("%s: round %d: %v", label, r, err)
		}
		checkOrders(t, s, label)
		if norm <= eps {
			return
		}
	}
}

// TestOrderStaysCanonical checks that repairing each class's order in place
// — insertion repair from the previous turn's order or from the seed another
// unconstrained class left, falling back to a full sort when the shift
// budget runs out — always leaves the canonical order, on a tie-heavy
// system, on heterogeneous systems with singleton and machine-constrained
// classes, and after a load shock that forces the fallback.
func TestOrderStaysCanonical(t *testing.T) {
	t.Run("ties", func(t *testing.T) {
		// Four speeds cycling over 400 machines: every unconstrained class
		// sees long runs of equal capacities.
		cs := benchClassSystem(400, 30, 30_000, 0.7)
		for _, init := range []core.Init{core.InitZero, core.InitProportional} {
			runRounds(t, newSolver(cs, startProfile(cs, init)), 1e-6*float64(cs.Users()), 200, init.String())
		}
	})

	t.Run("heterogeneous", func(t *testing.T) {
		r := rng.New(0x0bde)
		for idx := 0; idx < 12; idx++ {
			cs := heterogeneousSystem(t, r)
			for _, init := range []core.Init{core.InitZero, core.InitProportional} {
				runRounds(t, newSolver(cs, startProfile(cs, init)), core.DefaultEpsilon, 500, init.String())
			}
		}
	})

	t.Run("fallback", func(t *testing.T) {
		cs := heterogeneousSystem(t, rng.New(0xfa11))
		s := newSolver(cs, ProportionalClassProfile(cs))
		runRounds(t, s, core.DefaultEpsilon, 500, "before shock")
		// Shock: give every machine a spare capacity mu - load drawn from
		// [0.5, 1] regardless of its speed, and mark every machine dirty.
		// The capacities reshuffle far beyond what the shift budget covers,
		// so the first class must fall back to sort.Sort.
		shock := rng.New(7)
		for j := range s.loads {
			s.loads[j] = cs.Rates[j] - shock.Uniform(0.5, 1)
		}
		s.tick++
		s.lastChange = s.tick
		for j := range s.stamp {
			s.stamp[j] = s.tick
		}
		st := &s.classes[0]
		a := make([]float64, len(st.cols))
		for k, j := range st.cols {
			a[k] = cs.Rates[j] - s.loads[j] + st.weight*st.frac[k]
		}
		if inv, budget := inversions(st, a), repairShiftsPerMachine*len(st.order); inv <= budget {
			t.Fatalf("shock leaves %d inversions in class 0, within the %d-shift budget", inv, budget)
		}
		runRounds(t, s, core.DefaultEpsilon, 5, "after shock")
		// Exact loads again: a second reshuffle back the other way.
		s.refresh()
		runRounds(t, s, core.DefaultEpsilon, 500, "after refresh")
	})
}

// heterogeneousSystem draws 40-120 machines with rates log-uniform over
// [1, 100] and 12 classes at total utilization 0.5: a third unconstrained
// singletons, a third unconstrained multi-member classes, a third confined
// to random machine subsets at a small share of the subset's capacity.
// Class 0 is always unconstrained.
func heterogeneousSystem(t *testing.T, r *rng.Stream) *ClassSystem {
	t.Helper()
	n := 40 + r.Intn(81)
	rates := make([]float64, n)
	var capacity float64
	for j := range rates {
		rates[j] = math.Exp(r.Uniform(0, math.Log(100)))
		capacity += rates[j]
	}
	classes := make([]Class, 12)
	var free float64
	for c := range classes {
		switch c % 3 {
		case 0:
			classes[c] = Class{Phi: 1, Count: 1}
			free++
		case 1:
			count := 2 + r.Intn(500)
			classes[c] = Class{Phi: 1 / float64(count), Count: count}
			free++
		case 2:
			var machines []int32
			var reach float64
			for j := 0; j < n; j++ {
				if r.Intn(3) == 0 {
					machines = append(machines, int32(j))
					reach += rates[j]
				}
			}
			if machines == nil {
				j := r.Intn(n)
				machines, reach = []int32{int32(j)}, rates[j]
			}
			count := 1 + r.Intn(50)
			classes[c] = Class{Phi: 0.05 * reach / float64(count), Count: count, Machines: machines}
		}
	}
	// Scale the unconstrained classes so the total utilization is 0.5.
	var constrained float64
	for _, cl := range classes {
		if cl.Machines != nil {
			constrained += cl.Weight()
		}
	}
	share := (0.5*capacity - constrained) / free
	for c := range classes {
		if classes[c].Machines == nil {
			classes[c].Phi *= share
		}
	}
	cs, err := NewClassSystem(rates, classes)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}
