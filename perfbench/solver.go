package main

import (
	"fmt"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/megascale"
	"nashlb/internal/rng"
)

// Planet shape: the EXT11 headline point, 10 000 machines and one million
// users in 200 classes at rho=0.7, solved to a per-user tolerance of 1e-6.
const (
	planetMachines = 10_000
	planetClasses  = 200
	planetUsers    = 1_000_000
	planetRho      = 0.7
	planetEpsUser  = 1e-6
	planetDrift    = planetClasses / 10 // classes drifted per re-solve
	planetMinWarm  = 5
)

// planetInputs builds the EXT11 system's rates and classes: machines cycle
// through the Table-1 speeds, class weights through 1 + 0.1*(c mod 7).
func planetInputs() ([]float64, []megascale.Class) {
	speeds := []float64{10, 20, 50, 100}
	rates := make([]float64, planetMachines)
	for j := range rates {
		rates[j] = speeds[j%len(speeds)]
	}
	classes := make([]megascale.Class, planetClasses)
	for c := range classes {
		classes[c] = megascale.Class{Count: planetUsers / planetClasses, Phi: 1 + 0.1*float64(c%7)}
	}
	rescale(rates, classes, planetRho)
	return rates, classes
}

// rescale sets the classes' total offered load to rho of the capacity.
func rescale(rates []float64, classes []megascale.Class, rho float64) {
	capacity, load := 0.0, 0.0
	for _, mu := range rates {
		capacity += mu
	}
	for _, c := range classes {
		load += c.Weight()
	}
	for c := range classes {
		classes[c].Phi *= rho * capacity / load
	}
}

// runSolvePlanet measures the class-aggregated solver at planet scale: a
// cold NASH_P solve, then warm re-solves after seeded drift of a tenth of
// the classes by at most 5% each, for the rest of the phase (at least
// planetMinWarm of them), then one equilibrium certificate.
func runSolvePlanet(cfg config) (*report, error) {
	src := rng.NewSource(cfg.seed)
	rates, base := planetInputs()
	eps := planetEpsUser * planetUsers
	opts := megascale.Options{Init: core.InitProportional, Epsilon: eps}

	const setups = 3
	cs, setupS, setupN, err := repeatSetup(setups, func() (*megascale.ClassSystem, error) {
		return megascale.NewClassSystem(rates, base)
	}, func(*megascale.ClassSystem) {})
	if err != nil {
		return nil, err
	}

	rep := &report{}
	heap := -1.0
	var final *megascale.Result
	var finalCS *megascale.ClassSystem
	phase := 0
	run := func(seconds float64, tr *tracer) (*report, error) {
		phase++
		p := &report{}
		drift := src.Stream(fmt.Sprintf("drift/%d", phase))
		classes := append([]megascale.Class(nil), base...)
		start := time.Now()
		deadline := start.Add(time.Duration(seconds * 1e9))

		p.attempted++
		cold, err := megascale.Solve(cs, opts)
		coldEnd := time.Now()
		if err != nil {
			p.failed++
			p.problem("cold solve: %v", err)
			return p, nil
		}
		tr.add("megascale.solve", 0, 0, start, coldEnd)
		if heap < 0 {
			heap = liveHeapMB()
		}

		prev, cur := cold, cs
		var warm []float64
		var rounds, solves, skips int64
		loopStart := time.Now()
		for len(warm) < planetMinWarm || time.Now().Before(deadline) {
			for k := 0; k < planetDrift; k++ {
				c := drift.Intn(len(classes))
				classes[c].Phi *= 1 + 0.05*float64(2*drift.Intn(2)-1)
			}
			rescale(rates, classes, planetRho)
			t0 := time.Now()
			next, err := megascale.NewClassSystem(rates, classes)
			if err != nil {
				return nil, err
			}
			t1 := time.Now()
			p.attempted++
			res, err := megascale.SolveFrom(next, prev.Profile, opts)
			t2 := time.Now()
			if err != nil {
				p.failed++
				p.problem("warm re-solve %d: %v", len(warm)+1, err)
				return p, nil
			}
			if tr.on {
				root := tr.add("megascale.resolve", 0, 0, t0, t2)
				tr.add("megascale.system_build", root, tr.traceOf(root), t0, t1)
			}
			warm = append(warm, t2.Sub(t0).Seconds())
			rounds += int64(res.Rounds)
			solves += res.Solves
			skips += res.Skips
			prev, cur = res, next
		}
		wall := time.Since(loopStart)
		final, finalCS = prev, cur
		n := len(warm)
		p.e2e = []metric{
			{"throughput_per_s", "1/s", float64(n) / wall.Seconds(), n},
			{"latency_p50_ms", "ms", ms(warm, 0.5), n},
		}
		if !tr.on {
			p.layer = tailMetrics(warm)
			return p, nil
		}
		p.layer = []metric{
			{"megascale.solve_s", "s", coldEnd.Sub(start).Seconds(), 1},
			{"megascale.cold_rounds", "count", float64(cold.Rounds), 1},
			{"megascale.cold_solves", "count", float64(cold.Solves), 1},
			{"megascale.cold_skips", "count", float64(cold.Skips), 1},
			{"megascale.resolve_ms_p50", "ms", ms(warm, 0.5), n},
			{"megascale.warm_rounds", "count", float64(rounds), n},
			{"megascale.warm_solves", "count", float64(solves), n},
			{"megascale.warm_skips", "count", float64(skips), n},
			{"megascale.state_mb", "MB", float64(cold.StateBytes) / (1 << 20), 1},
			{"bench.samples", "count", float64(n), n},
		}
		return p, nil
	}
	u0 := readUsage()
	untraced, traced, tr, err := phases(cfg, run)
	if err != nil {
		return nil, err
	}
	rep.merge(untraced)
	if traced != nil {
		rep.merge(traced)
	}
	if len(rep.problems) > 0 {
		return rep, nil
	}

	// The certificate: no single user of any class gains more than
	// planetEpsUser (relative) by deviating from the final profile.
	rep.attempted++
	t0 := time.Now()
	ok, dev, err := megascale.VerifyEquilibrium(finalCS, final.Profile, planetEpsUser)
	t1 := time.Now()
	if err != nil || !ok {
		rep.failed++
		rep.problem("VerifyEquilibrium at eps %g: ok=%t deviation %g (%v)", planetEpsUser, ok, dev, err)
	}
	use := readUsage().since(u0)
	rep.e2e = append([]metric{{"setup_s", "s", setupS, setupN}, {"heap_mb", "MB", heap, 1}}, untraced.e2e...)
	if traced != nil {
		tr.add("megascale.certify", 0, 0, t0, t1)
		err := finish(cfg, rep, untraced, traced, tr,
			metric{"megascale.system_build_ms", "ms", setupS * 1e3, setupN},
			metric{"megascale.certify_s", "s", t1.Sub(t0).Seconds(), 1},
			metric{"megascale.cert_eps", "s", dev, planetClasses},
			metric{"runtime.gc_cycles", "count", float64(use.gcs), 1},
			metric{"runtime.gc_pause_ms", "ms", use.pause.Seconds() * 1e3, int(use.gcs)},
		)
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}
