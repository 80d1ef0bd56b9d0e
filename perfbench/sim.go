package main

import (
	"fmt"
	"math"
	"time"

	"nashlb/internal/cluster"
	"nashlb/internal/core"
	"nashlb/internal/experiments"
	"nashlb/internal/rng"
)

// Simulation shape: each batch is simBatch replications of simDuration
// simulated seconds (after a tenth as warm-up) of the Table-1 system under
// its NASH profile at rho=0.6.
const (
	simRho      = 0.6
	simBatch    = 8
	simDuration = 1000.0
	// simZ is the normal quantile of the pooled check on the closed form:
	// a 99.9% interval, so an honest run fails it once in a thousand
	// instead of once in twenty as a 95% interval would.
	simZ = 3.29
)

// runSimTable1 measures the paper's own experiment: batches of replicated
// discrete-event runs through cluster.ReplicateWorkers on nproc workers,
// for the length of the phase.
func runSimTable1(cfg config) (*report, error) {
	sys, err := experiments.Table1System(simRho)
	if err != nil {
		return nil, err
	}
	src := rng.NewSource(cfg.seed)
	var solveTimes []float64
	const setups = 3
	base, setupS, setupN, err := repeatSetup(setups, func() (cluster.Config, error) {
		t := time.Now()
		nash, err := core.Solve(sys, core.Options{})
		solveTimes = append(solveTimes, time.Since(t).Seconds())
		if err != nil {
			return cluster.Config{}, err
		}
		c := cluster.Config{Rates: sys.Rates, Arrivals: sys.Arrivals, Profile: nash.Profile,
			Duration: simDuration, Warmup: simDuration / 10}
		return c, c.Validate()
	}, func(cluster.Config) {})
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB()
	predicted := cluster.PredictedOverallTime(base)

	rep := &report{}
	var overall []float64 // every replication's overall mean response time
	worstRE := 0.0
	batchSeed := func(name string) uint64 { return src.Stream(name).Uint64() }
	// Warm-up batch, untimed and unchecked beyond its error.
	if _, err := cluster.ReplicateWorkers(withSeed(base, batchSeed("warmup")), 2, cfg.procs); err != nil {
		return nil, err
	}

	phase := 0
	var batchWalls []float64
	run := func(seconds float64, tr *tracer) (*report, error) {
		phase++
		p := &report{}
		var walls []float64
		var jobs int64
		start := time.Now()
		deadline := start.Add(time.Duration(seconds * 1e9))
		for b := 0; time.Now().Before(deadline); b++ {
			c := withSeed(base, batchSeed(fmt.Sprintf("batch/%d/%d", phase, b)))
			p.attempted += simBatch
			t0 := time.Now()
			sum, err := cluster.ReplicateWorkers(c, simBatch, cfg.procs)
			t1 := time.Now()
			if err != nil {
				p.failed += simBatch
				p.problem("batch %d: %v", b, err)
				return p, nil
			}
			tr.add("replicate.batch", 0, 0, t0, t1)
			re := sum.MaxRelativeError()
			worstRE = math.Max(worstRE, re)
			if re > 0.05 {
				p.problem("batch %d: max relative CI half-width %.4f above the paper's 5%%", b, re)
			}
			for _, r := range sum.Runs {
				overall = append(overall, r.OverallMean())
			}
			walls = append(walls, t1.Sub(t0).Seconds())
			jobs += sum.Completed
		}
		wall := time.Since(start)
		batchWalls = append(batchWalls, walls...)
		n := len(walls)
		p.e2e = []metric{
			{"throughput_per_s", "1/s", float64(jobs) / wall.Seconds(), int(jobs)},
			{"latency_p50_ms", "ms", ms(walls, 0.5), n},
		}
		p.layer = []metric{{"bench.samples", "count", float64(n), n}}
		if !tr.on {
			p.layer = tailMetrics(walls)
		}
		return p, nil
	}
	untraced, traced, tr, err := phases(cfg, run)
	if err != nil {
		return nil, err
	}
	rep.merge(untraced)
	rep.e2e = append([]metric{{"setup_s", "s", setupS, setupN}, {"heap_mb", "MB", heap, 1}}, untraced.e2e...)
	if traced != nil {
		rep.merge(traced)
	}

	// The closed-form NASH response time must lie inside the pooled
	// interval of all replications' overall means.
	mean, half := meanHalfWidth(overall, simZ)
	if math.Abs(mean-predicted) > half {
		rep.problem("closed-form overall time %.6g outside the pooled interval %.6g ± %.2g", predicted, mean, half)
	}

	if traced != nil {
		// One replication alone, for the simulator's own speed and cost.
		c := withSeed(base, batchSeed("single"))
		u0 := readUsage()
		t0 := time.Now()
		one, err := cluster.Simulate(c)
		t1 := time.Now()
		use := readUsage().since(u0)
		if err != nil {
			return nil, err
		}
		tr.add("cluster.simulate", 0, 0, t0, t1)
		simS := t1.Sub(t0).Seconds()
		err = finish(cfg, rep, untraced, traced, tr,
			metric{"cluster.jobs", "count", float64(one.Completed), 1},
			metric{"cluster.simulate_s", "s", simS, 1},
			metric{"cluster.max_rel_error", "ratio", worstRE, len(batchWalls)},
			metric{"replicate.efficiency", "ratio", simBatch * simS / (median(batchWalls) * float64(cfg.procs)), len(batchWalls)},
			metric{"runtime.allocs_per_job", "count", float64(use.mallocs) / float64(max(one.Completed, 1)), int(one.Completed)},
			metric{"core.solve_ms", "ms", median(solveTimes) * 1e3, len(solveTimes)},
		)
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func withSeed(c cluster.Config, seed uint64) cluster.Config {
	c.Seed = seed
	return c
}

// meanHalfWidth returns the sample mean and z standard errors.
func meanHalfWidth(xs []float64, z float64) (mean, half float64) {
	n := float64(len(xs))
	if n < 2 {
		return 0, math.Inf(1)
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, z * math.Sqrt(ss/(n-1)/n)
}
