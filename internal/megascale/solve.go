package megascale

import (
	"fmt"
	"math"
	"sort"

	"nashlb/internal/core"
	"nashlb/internal/game"
	"nashlb/internal/numeric"
)

// DefaultRefreshEvery is the default period (in rounds) of the exact
// machine-load recomputation that bounds the drift of the incrementally
// maintained loads. Between refreshes the incremental loads differ from the
// exact column sums only by accumulated rounding, at most RefreshEvery
// round-updates' worth of ulps per machine.
const DefaultRefreshEvery = 64

// Options configures the class-aggregated NASH solver. The zero value mirrors
// core.Options: NASH_0 initialization, core.DefaultEpsilon, and
// core.DefaultMaxRounds.
type Options struct {
	// Init selects NASH_0 or NASH_P.
	Init core.Init
	// Epsilon is the tolerance on the per-round norm
	// sum_c Count_c * |D_c - D_c_prev| (core.DefaultEpsilon when zero).
	// The norm weights each class by its member count, so it equals the
	// dense per-user norm on the expanded game.
	Epsilon float64
	// MaxRounds bounds the iteration (core.DefaultMaxRounds when zero).
	MaxRounds int
	// RefreshEvery is the exact-load refresh period: 0 means
	// DefaultRefreshEvery, a negative value disables mid-iteration
	// refreshes entirely, and 1 recomputes exact loads every round (the
	// non-incremental reference mode used by the invariance tests).
	RefreshEvery int
	// OnRound, when non-nil, observes every completed round.
	OnRound func(core.RoundStat)
}

// Result is the outcome of the class-aggregated solver.
type Result struct {
	// Profile is the computed sparse strategy profile.
	Profile *ClassProfile
	// Rounds is the number of completed best-reply rounds.
	Rounds int
	// Norms[k] is the population-weighted norm after round k+1.
	Norms []float64
	// Converged reports whether the norm dropped below epsilon.
	Converged bool
	// ClassTimes holds each class's per-member expected response time at
	// Profile (every member of a class has the same D).
	ClassTimes []float64
	// OverallTime is the system-wide expected response time at Profile.
	OverallTime float64
	// Init echoes the initialization used.
	Init core.Init
	// Solves counts class best-response recomputations across all rounds.
	Solves int64
	// Skips counts the (round, class) cells the dirty tracking proved
	// unchanged, so no best response was recomputed.
	Skips int64
	// StateBytes is the resident size of the solver state (profile plus
	// per-class caches), the memory figure reported by EXT11.
	StateBytes int64
}

// classState is the solver's per-class cache. cols and frac alias the
// profile row; A, sqrtA and order are the incremental water-filling caches:
// A[k] is the processing rate of machine cols[k] available to the class
// (mu - load + ownWeight*frac, unchanged by the class's own moves), and
// order holds positions 0..len(cols)-1 sorted by decreasing A with ties
// broken by ascending position — the same canonical order
// numeric.ArgsortDescending produces.
type classState struct {
	phi     float64
	w       float64 // Count
	weight  float64 // Count * Phi
	cols    []int32
	frac    []float64
	A       []float64
	sqrtA   []float64
	order   []int32
	newFrac []float64
	// lastTick is the solver tick this class last solved (or verified
	// itself clean) against; machines stamped later are dirty. -1 = never.
	lastTick int64
	// lastD is D_c after the class's previous update (0 for a zero row or
	// non-finite D, matching core.SolveFrom's NASH_0 semantics).
	lastD float64
	// active is the active-prefix size from the previous solve and alpha
	// the previous KKT multiplier — warm starts for the weighted solve.
	active int
	alpha  float64
}

// sort.Interface over order: decreasing A, ties by ascending position.
func (st *classState) Len() int { return len(st.order) }
func (st *classState) Less(i, j int) bool {
	a, b := st.order[i], st.order[j]
	if st.A[a] != st.A[b] {
		return st.A[a] > st.A[b]
	}
	return a < b
}
func (st *classState) Swap(i, j int) { st.order[i], st.order[j] = st.order[j], st.order[i] }

// repairShiftsPerMachine bounds insertionRepair's work: after this many
// element shifts per machine it gives up and falls back to sort.Sort.
const repairShiftsPerMachine = 2

// insertionRepair restores the canonical order in place. Insertion sort runs
// in O(len + inversions), which is cheap when the cached order is nearly
// right — the common case, since a class's capacities drift only slightly
// between turns. Once the shift budget runs out it sorts the rest with
// sort.Sort, so a heavily scrambled order still costs O(len log len). The
// order is total, so either path yields the same permutation.
func (st *classState) insertionRepair() {
	order, A := st.order, st.A
	budget := repairShiftsPerMachine * len(order)
	for i := 1; i < len(order); i++ {
		k := order[i]
		a := A[k]
		j := i
		for j > 0 {
			prev := order[j-1]
			if A[prev] > a || (A[prev] == a && prev < k) {
				break
			}
			if budget == 0 {
				order[j] = k
				sort.Sort(st)
				return
			}
			budget--
			order[j] = prev
			j--
		}
		order[j] = k
	}
}

// solver is the mutable state of one Solve call.
type solver struct {
	cs   *ClassSystem
	prof *ClassProfile
	// loads[j] is the incrementally maintained lambda_j; comp[j] its
	// Neumaier compensation, folded in by refresh.
	loads []float64
	comp  []float64
	// stamp[j] is the tick of machine j's last load change; lastChange the
	// most recent stamp anywhere, for an O(1) clean-skip per class.
	stamp      []int64
	tick       int64
	lastChange int64
	classes    []classState
	// seed is the order the last unconstrained class to solve left behind.
	// Every unconstrained class spans all machines in ascending id order, so
	// a position names the same machine in each of them, and the classes see
	// nearly the same capacities: a class on its first turn starts its
	// repair from seed rather than from the identity permutation.
	seed   []int32
	solves int64
	skips  int64
}

// Solve runs the class-aggregated NASH best-reply iteration from the
// initialization selected in opts. It is the class-level counterpart of
// core.Solve: one round updates every class in turn with its exact
// symmetric-within-class best response, and the norm is the
// population-weighted response-time change.
func Solve(cs *ClassSystem, opts Options) (*Result, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	var start *ClassProfile
	if opts.Init == core.InitProportional {
		start = ProportionalClassProfile(cs)
	} else {
		start = NewClassProfile(cs)
	}
	return solveFrom(cs, start, opts)
}

// SolveFrom runs the iteration from an explicit starting profile (warm
// start). The profile must have been built for cs (same row and column
// structure); it is cloned, not mutated.
func SolveFrom(cs *ClassSystem, start *ClassProfile, opts Options) (*Result, error) {
	if err := cs.Validate(); err != nil {
		return nil, err
	}
	if start == nil {
		return nil, fmt.Errorf("megascale: nil starting profile")
	}
	if !start.fits(cs) {
		return nil, fmt.Errorf("megascale: starting profile shape does not match the class system")
	}
	return solveFrom(cs, start.Clone(), opts)
}

// solveFrom owns prof (already cloned or freshly built).
func solveFrom(cs *ClassSystem, prof *ClassProfile, opts Options) (*Result, error) {
	eps := opts.Epsilon
	if eps <= 0 {
		eps = core.DefaultEpsilon
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = core.DefaultMaxRounds
	}
	refreshEvery := opts.RefreshEvery
	if refreshEvery == 0 {
		refreshEvery = DefaultRefreshEvery
	}

	s := newSolver(cs, prof)
	res := &Result{Init: opts.Init, Profile: prof}
	res.Norms = make([]float64, 0, maxRounds)
	for round := 1; round <= maxRounds; round++ {
		norm, maxShift, err := s.round()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		res.Rounds = round
		res.Norms = append(res.Norms, norm)
		if opts.OnRound != nil {
			opts.OnRound(core.RoundStat{Round: round, Norm: norm, MaxShift: maxShift})
		}
		if norm <= eps {
			res.Converged = true
			break
		}
		if refreshEvery > 0 && round%refreshEvery == 0 {
			s.refresh()
		}
	}
	s.recomputeLoads() // exact loads for the final report
	res.ClassTimes = make([]float64, len(cs.Classes))
	var overall numeric.Accumulator
	for c := range s.classes {
		st := &s.classes[c]
		d := s.classTime(st)
		res.ClassTimes[c] = d
		overall.Add(st.weight * d)
	}
	res.OverallTime = overall.Value() / cs.TotalArrival()
	res.Solves, res.Skips = s.solves, s.skips
	res.StateBytes = s.stateBytes()
	if !res.Converged {
		return res, fmt.Errorf("%w after %d rounds (norm=%g, eps=%g)",
			core.ErrNotConverged, res.Rounds, res.Norms[len(res.Norms)-1], eps)
	}
	return res, nil
}

func newSolver(cs *ClassSystem, prof *ClassProfile) *solver {
	n := len(cs.Rates)
	s := &solver{
		cs:      cs,
		prof:    prof,
		loads:   make([]float64, n),
		comp:    make([]float64, n),
		stamp:   make([]int64, n),
		classes: make([]classState, len(cs.Classes)),
	}
	for c := range s.classes {
		st := &s.classes[c]
		cl := cs.Classes[c]
		st.phi = cl.Phi
		st.w = float64(cl.Count)
		st.weight = cl.Weight()
		st.cols, st.frac = prof.Row(c)
		span := len(st.cols)
		st.A = make([]float64, span)
		st.sqrtA = make([]float64, span)
		st.order = make([]int32, span)
		st.newFrac = make([]float64, span)
		for k := range st.order {
			st.order[k] = int32(k)
		}
		st.lastTick = -1
	}
	s.recomputeLoads()
	// D_c^(0): zero for all-zero rows (NASH_0 semantics) and for saturated
	// (non-finite) times, the actual response time otherwise — the class
	// image of core.SolveFrom's prevTimes initialization.
	for c := range s.classes {
		st := &s.classes[c]
		if d := s.classTime(st); !math.IsInf(d, 0) {
			st.lastD = d
		}
	}
	return s
}

// classTime returns the per-member expected response time of the class at
// its current fractions under the solver's current loads: sum over the
// class's support of frac/(mu - load); +Inf if a used machine is saturated,
// 0 for an all-zero row.
func (s *solver) classTime(st *classState) float64 {
	var acc numeric.Accumulator
	for k, j := range st.cols {
		f := st.frac[k]
		if f == 0 {
			continue
		}
		rem := s.cs.Rates[j] - s.loads[j]
		if rem <= 0 {
			return math.Inf(1)
		}
		acc.Add(f / rem)
	}
	return acc.Value()
}

// recomputeLoads rebuilds loads exactly from the profile with compensated
// per-machine sums (the same arithmetic as ClassProfile.Loads).
func (s *solver) recomputeLoads() {
	for j := range s.loads {
		s.loads[j] = 0
		s.comp[j] = 0
	}
	for c := range s.classes {
		st := &s.classes[c]
		for k, j := range st.cols {
			addCompensated(s.loads, s.comp, int(j), st.weight*st.frac[k])
		}
	}
	for j := range s.loads {
		s.loads[j] += s.comp[j]
	}
}

// refresh is the periodic drift-bounding pass: exact loads, then every
// machine is stamped dirty so each class revalidates its cached capacities
// against the refreshed values on its next turn.
func (s *solver) refresh() {
	s.recomputeLoads()
	s.tick++
	s.lastChange = s.tick
	for j := range s.stamp {
		s.stamp[j] = s.tick
	}
}

// round performs one best-reply round: every class in turn revalidates its
// dirty machines and, if anything changed, recomputes its symmetric best
// response and installs it. Classes whose available capacities are provably
// unchanged are skipped outright — their best response, and hence their
// norm contribution, is identical to the previous round's, which was
// already below the per-class threshold when the loop continues.
func (s *solver) round() (norm, maxShift float64, err error) {
	for ci := range s.classes {
		st := &s.classes[ci]
		fresh := st.lastTick < 0
		if !fresh && st.lastTick >= s.lastChange {
			s.skips++
			continue
		}
		unconstrained := s.cs.Classes[ci].Machines == nil
		changed := 0
		if fresh {
			if unconstrained && s.seed != nil {
				copy(st.order, s.seed)
			}
			for k, j := range st.cols {
				a := s.cs.Rates[j] - s.loads[j] + st.weight*st.frac[k]
				st.A[k] = a
				st.sqrtA[k] = sqrtPos(a)
			}
			changed = len(st.cols)
		} else {
			for k, j := range st.cols {
				if s.stamp[j] <= st.lastTick {
					continue
				}
				a := s.cs.Rates[j] - s.loads[j] + st.weight*st.frac[k]
				if a != st.A[k] {
					st.A[k] = a
					st.sqrtA[k] = sqrtPos(a)
					changed++
				}
			}
		}
		if changed == 0 {
			st.lastTick = s.tick
			s.skips++
			continue
		}
		d, shift, serr := s.solveClass(st)
		if serr != nil {
			return 0, 0, fmt.Errorf("class %d: %w", ci, serr)
		}
		if unconstrained {
			s.seed = st.order
		}
		s.solves++
		if shift > maxShift {
			maxShift = shift
		}
		norm += st.w * math.Abs(d-st.lastD)
		st.lastD = d
	}
	return norm, maxShift, nil
}

func sqrtPos(a float64) float64 {
	if a > 0 {
		return math.Sqrt(a)
	}
	return 0
}

// solveClass computes the class's exact best response — the symmetric
// within-class equilibrium against the other classes' current loads — and
// installs it, returning the per-member response time and the per-member L1
// strategy shift.
//
// Because every member's own contribution cancels out of the capacity the
// class as a whole sees (A_j = mu_j - lambda_j + W*s_j is invariant under
// the class's own moves), the cached A vector stays valid across the
// class's own update and only other classes' moves dirty it.
func (s *solver) solveClass(st *classState) (d, shift float64, err error) {
	span := len(st.order)
	st.insertionRepair()
	usable := 0
	for usable < span && st.A[st.order[usable]] > 0 {
		usable++
	}
	if usable == 0 {
		return 0, 0, fmt.Errorf("%w: weight=%g, no usable machine", core.ErrInsufficientCapacity, st.weight)
	}

	var c int
	var waterT, alpha float64
	if st.w == 1 {
		c, waterT, err = st.solveSingleton(usable)
	} else {
		c, alpha, err = st.solveWeighted(usable)
	}
	if err != nil {
		return 0, 0, err
	}
	st.active = c
	st.alpha = alpha

	// Assign fractions s_k = (A_k - u_k)/W over the active prefix, where
	// u_k is the member-residual capacity: t*sqrt(A_k) in the singleton
	// case (exactly core.Optimal's water-filling step) and the KKT root
	// for weighted classes.
	for k := range st.newFrac {
		st.newFrac[k] = 0
	}
	if c == 1 {
		// Single active machine: assigning 1 directly avoids losing the
		// answer to cancellation when A >> W (same as core.Optimal).
		st.newFrac[st.order[0]] = 1
	} else {
		wm1 := st.w - 1
		den := 2 * st.w * alpha
		var total numeric.Accumulator
		for x := 0; x < c; x++ {
			k := st.order[x]
			var u float64
			if st.w == 1 {
				u = waterT * st.sqrtA[k]
			} else {
				u = (wm1 + math.Sqrt(wm1*wm1+2*den*st.A[k])) / den
			}
			f := (st.A[k] - u) / st.weight
			f = numeric.ClampNonNegative(f, 1e-9)
			if f < 0 {
				return 0, 0, fmt.Errorf("megascale: internal error: negative fraction %g at order %d", f, x)
			}
			st.newFrac[k] = f
			total.Add(f)
		}
		tv := total.Value()
		if !(tv > 0) || math.IsInf(tv, 0) || math.IsNaN(tv) {
			// Catastrophic cancellation across extreme rate spreads:
			// fall back to the dominant machine, the water-filling limit
			// in that regime (mirrors core.Optimal).
			for x := 0; x < c; x++ {
				st.newFrac[st.order[x]] = 0
			}
			st.newFrac[st.order[0]] = 1
		} else if tv != 1 {
			for x := 0; x < c; x++ {
				k := st.order[x]
				if st.newFrac[k] > 0 {
					st.newFrac[k] /= tv
				}
			}
		}
	}

	// Per-member response time at the new strategy, against the capacities
	// the class saw: D = sum s_k/(A_k - W*s_k) — the class image of
	// core.ResponseTime.
	var acc numeric.Accumulator
	dInf := false
	for x := 0; x < span; x++ {
		f := st.newFrac[x]
		if f == 0 {
			continue
		}
		rem := st.A[x] - f*st.weight
		if rem <= 0 {
			dInf = true
			break
		}
		acc.Add(f / rem)
	}
	if dInf {
		d = math.Inf(1)
	} else {
		d = acc.Value()
	}

	// Install: update the shared loads and stamp the machines that moved.
	bumped := false
	for k, j := range st.cols {
		delta := st.newFrac[k] - st.frac[k]
		if delta == 0 {
			continue
		}
		if !bumped {
			s.tick++
			s.lastChange = s.tick
			bumped = true
		}
		s.loads[int(j)] += st.weight * delta
		s.stamp[int(j)] = s.tick
		shift += math.Abs(delta)
		st.frac[k] = st.newFrac[k]
	}
	st.lastTick = s.tick
	return d, shift, nil
}

// solveSingleton finds the active prefix and water level for a size-1 class
// by the paper's OPTIMAL shrink loop, identical in comparisons to
// core.Optimal but with O(1) running prefix sums instead of re-summation:
// t = (sum A - phi)/(sum sqrt A), shrinking while t >= sqrt(A_c).
func (st *classState) solveSingleton(usable int) (c int, t float64, err error) {
	var sumA, sumS float64
	for x := 0; x < usable; x++ {
		k := st.order[x]
		sumA += st.A[k]
		sumS += st.sqrtA[k]
	}
	if st.phi >= sumA {
		return 0, 0, fmt.Errorf("%w: lambda=%g, available=%g", core.ErrInsufficientCapacity, st.phi, sumA)
	}
	c = usable
	t = (sumA - st.phi) / sumS
	for c > 1 && t >= st.sqrtA[st.order[c-1]] {
		c--
		sumA -= st.A[st.order[c]]
		sumS -= st.sqrtA[st.order[c]]
		t = (sumA - st.phi) / sumS
	}
	return c, t, nil
}

// solveWeighted finds the active prefix and KKT multiplier alpha for a class
// of w > 1 members. At the symmetric within-class equilibrium each member's
// residual capacity u_k = A_k - W*s_k on active machines solves
//
//	w*alpha*u^2 - (w-1)*u - A_k = 0,  i.e.
//	u_k(alpha) = [(w-1) + sqrt((w-1)^2 + 4*w*alpha*A_k)] / (2*w*alpha),
//
// with alpha chosen so sum_k u_k = sum_k A_k - W (conservation), and machine
// k active iff alpha*A_k > 1. For w = 1 this reduces exactly to the paper's
// water level (alpha = 1/t^2). The root is found by safeguarded Newton —
// sum u_k is strictly decreasing in alpha — warm-started from the class's
// previous multiplier, and the active prefix is iterated to consistency.
func (st *classState) solveWeighted(usable int) (c int, alpha float64, err error) {
	c = st.active
	if c < 1 || c > usable {
		c = usable
	}
	var sumA, sumS float64
	for x := 0; x < c; x++ {
		k := st.order[x]
		sumA += st.A[k]
		sumS += st.sqrtA[k]
	}
	alpha = st.alpha
	for iter := 0; ; iter++ {
		if iter > 2*usable+4 {
			return 0, 0, fmt.Errorf("megascale: internal error: active-set iteration did not settle (usable=%d)", usable)
		}
		for sumA <= st.weight && c < usable {
			k := st.order[c]
			sumA += st.A[k]
			sumS += st.sqrtA[k]
			c++
		}
		if sumA <= st.weight {
			return 0, 0, fmt.Errorf("%w: weight=%g, available=%g", core.ErrInsufficientCapacity, st.weight, sumA)
		}
		alpha = st.solveAlpha(c, sumA, sumS, alpha)
		// Consistency: the prefix implied by alpha is {k : alpha*A_k > 1}.
		c2 := c
		for c2 < usable && alpha*st.A[st.order[c2]] > 1 {
			sumA += st.A[st.order[c2]]
			sumS += st.sqrtA[st.order[c2]]
			c2++
		}
		if c2 == c {
			for c2 > 1 && alpha*st.A[st.order[c2-1]] <= 1 {
				c2--
				sumA -= st.A[st.order[c2]]
				sumS -= st.sqrtA[st.order[c2]]
			}
		}
		if c2 == c {
			return c, alpha, nil
		}
		c = c2
	}
}

// solveAlpha solves sum_{x<c} u_x(alpha) = sumA - W for alpha by Newton with
// a bisection safeguard. The left-hand side decreases from +Inf (alpha->0)
// to 0 (alpha->Inf), so the root exists and is unique whenever sumA > W.
func (st *classState) solveAlpha(c int, sumA, sumS, warm float64) float64 {
	target := sumA - st.weight
	alpha := warm
	if !(alpha > 0) || math.IsInf(alpha, 0) || math.IsNaN(alpha) {
		// Water-level analog of the singleton case as the cold start.
		t0 := target / sumS
		alpha = 1 / (t0 * t0)
	}
	wm1 := st.w - 1
	lo, hi := 0.0, math.Inf(1)
	for it := 0; it < 100; it++ {
		den := 2 * st.w * alpha
		var sumU numeric.Accumulator
		var dU float64
		for x := 0; x < c; x++ {
			A := st.A[st.order[x]]
			r := math.Sqrt(wm1*wm1 + 2*den*A)
			u := (wm1 + r) / den
			sumU.Add(u)
			dU -= st.w * u * u / r
		}
		F := sumU.Value() - target
		if F > 0 {
			lo = alpha
		} else if F < 0 {
			hi = alpha
		} else {
			break
		}
		if math.Abs(F) <= 1e-12*target {
			break
		}
		next := alpha - F/dU
		if !(next > lo && next < hi) || math.IsNaN(next) {
			if math.IsInf(hi, 1) {
				next = alpha * 2
			} else {
				next = lo + (hi-lo)/2
			}
		}
		if next == alpha {
			break
		}
		alpha = next
	}
	return alpha
}

// stateBytes reports the resident size of the solver's arrays plus the
// profile it mutates.
func (s *solver) stateBytes() int64 {
	bytes := s.prof.MemoryBytes()
	bytes += int64(len(s.loads))*8 + int64(len(s.comp))*8 + int64(len(s.stamp))*8
	for c := range s.classes {
		st := &s.classes[c]
		bytes += int64(len(st.A))*8 + int64(len(st.sqrtA))*8 + int64(len(st.newFrac))*8 + int64(len(st.order))*4
	}
	return bytes
}

// SolveSystem solves a dense per-user system through the class engine: the
// users are aggregated with FromSystem, the class game is solved, and the
// result is expanded back to per-user form. It is a drop-in replacement for
// core.Solve — identical options, result shape, and error contract — that
// costs O(classes) per round instead of O(users).
func SolveSystem(sys *game.System, opts core.Options) (*core.Result, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	cs, userToClass := FromSystem(sys)
	res, err := Solve(cs, Options{
		Init:      opts.Init,
		Epsilon:   opts.Epsilon,
		MaxRounds: opts.MaxRounds,
		OnRound:   opts.OnRound,
	})
	if res == nil {
		return nil, err
	}
	profile, perr := res.Profile.ExpandUsers(cs, userToClass)
	if perr != nil {
		return nil, perr
	}
	out := &core.Result{
		Profile:     profile,
		Rounds:      res.Rounds,
		Norms:       res.Norms,
		Converged:   res.Converged,
		UserTimes:   make([]float64, len(userToClass)),
		OverallTime: res.OverallTime,
		Init:        res.Init,
	}
	for i, c := range userToClass {
		out.UserTimes[i] = res.ClassTimes[c]
	}
	return out, err
}

// VerifyEquilibrium checks that the class profile is an eps-Nash equilibrium
// of the expanded per-user game without materializing the users: for each
// class it gives a single member its exact per-user best response
// (core.Optimal over the class's allowed machines) and measures the
// response-time improvement. The scale convention matches
// game.System.EpsilonEquilibrium: the tolerance is relative to the largest
// finite member time once that exceeds 1.
func VerifyEquilibrium(cs *ClassSystem, p *ClassProfile, eps float64) (bool, float64, error) {
	if err := cs.Validate(); err != nil {
		return false, 0, err
	}
	loads := p.Loads(cs)
	span := 0
	for c := range cs.Classes {
		if m := cs.machineSpan(c); m > span {
			span = m
		}
	}
	avail := make([]float64, span)
	var worst, scale float64
	for c := range cs.Classes {
		cl := cs.Classes[c]
		cols, vals := p.Row(c)
		a := avail[:len(cols)]
		var cur numeric.Accumulator
		curInf := false
		for k, j := range cols {
			a[k] = cs.Rates[j] - loads[j] + cl.Phi*vals[k]
			if vals[k] != 0 {
				rem := cs.Rates[j] - loads[j]
				if rem <= 0 {
					curInf = true
				} else {
					cur.Add(vals[k] / rem)
				}
			}
		}
		best, err := core.Optimal(a, cl.Phi)
		if err != nil {
			return false, 0, fmt.Errorf("best response of class %d: %w", c, err)
		}
		curD := cur.Value()
		if curInf {
			curD = math.Inf(1)
		} else if curD > scale {
			scale = curD
		}
		alt := core.ResponseTime(a, cl.Phi, best)
		if impr := curD - alt; impr > worst {
			worst = impr
		}
	}
	if scale < 1 {
		scale = 1
	}
	return worst <= eps*scale, worst, nil
}
