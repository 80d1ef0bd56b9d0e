package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"nashlb/internal/core"
	"nashlb/internal/experiments"
	"nashlb/internal/fleet"
	"nashlb/internal/game"
	"nashlb/internal/megascale"
	"nashlb/internal/rng"
	"nashlb/internal/serve"
)

// Shipped gateway defaults the serving workloads keep (nashgate's flags).
const (
	probeEvery  = 250 * time.Millisecond
	retries     = 2
	retryBudget = 0.1
)

// fleetStack is a running gateway over its in-process backends.
type fleetStack struct {
	backends []*serve.Backend
	gw       *serve.Gateway
}

func (s *fleetStack) close() {
	if s == nil {
		return
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, b := range s.backends {
		b.Close()
	}
}

// startBackends starts one backend per rate, each seeded from src.
func startBackends(rates []float64, src *rng.Source) (*fleetStack, []string, error) {
	st := &fleetStack{}
	urls := make([]string, len(rates))
	for j, mu := range rates {
		b, err := serve.NewBackend(serve.BackendConfig{Rate: mu, Seed: src.Stream(fmt.Sprintf("backend/%d", j)).Uint64()})
		if err == nil {
			err = b.Start()
		}
		if err != nil {
			st.close()
			return nil, nil, err
		}
		st.backends = append(st.backends, b)
		urls[j] = b.URL()
	}
	return st, urls, nil
}

// backendCounts sums the backends' public counters.
type backendCounts struct {
	served, rejected int64
	busy             time.Duration
}

func (s *fleetStack) counts() backendCounts {
	var c backendCounts
	for _, b := range s.backends {
		c.served += b.Served()
		c.rejected += b.Rejected()
		c.busy += b.BusyTime()
	}
	return c
}

// userPicker returns a sampler of users with probability proportional to
// their arrival rates phi_i.
func userPicker(phi []float64) (func(*rng.Stream) int, error) {
	a, err := rng.NewAlias(phi)
	if err != nil {
		return nil, err
	}
	return func(s *rng.Stream) int { return a.Pick(s) }, nil
}

// gatewayPhase runs one load phase against st, reading the gateway's and
// the backends' counters around it, and returns the phase's report: the
// load's checks, the end-to-end metrics, and in trace mode the request
// path's per-layer metrics.
func gatewayPhase(st *fleetStack, tr *tracer, load func() *loadStats) (*loadStats, *report) {
	before, b0, u0 := st.gw.Metrics(), st.counts(), readUsage()
	ls := load()
	use, b1, after := readUsage().since(u0), st.counts(), st.gw.Metrics()
	p := loadReport(ls)
	p.e2e, p.layer = latencyMetrics(ls, tr.on)
	if served := b1.served - b0.served; served < int64(len(ls.samples)) {
		p.problem("backends served %d jobs for %d OK answers", served, len(ls.samples))
	}
	// Neither workload lets the bucket bind: it must deny nothing.
	if d := after.Admission.Denied - before.Admission.Denied; d != 0 {
		p.problem("admission denied %d requests below its fill rate", d)
	}
	if tr.on {
		p.layer = append(requestMetrics(ls, tr.selfTimes()), gatewayLayerMetrics(before, after, b0, b1, ls.wall, len(st.backends))...)
		p.layer = append(p.layer, runtimeMetrics(use, len(ls.samples))...)
	}
	return ls, p
}

// gatewayLayerMetrics derives the serve layer's counters over a phase from
// two gateway snapshots and two backend readings.
func gatewayLayerMetrics(before, after *serve.Snapshot, b0, b1 backendCounts, wall time.Duration, nBackends int) []metric {
	var opened, reused, errs int64
	for j := range after.ConnOpened {
		opened += after.ConnOpened[j] - before.ConnOpened[j]
		reused += after.ConnReused[j] - before.ConnReused[j]
		errs += after.BackendErrors[j] - before.BackendErrors[j]
	}
	reuse := 0.0
	if opened+reused > 0 {
		reuse = float64(reused) / float64(opened+reused)
	}
	return []metric{
		{"serve.conn_opened", "count", float64(opened), 1},
		{"serve.conn_reuse_ratio", "ratio", reuse, int(opened + reused)},
		{"serve.admission_admitted", "count", float64(after.Admission.Admitted - before.Admission.Admitted), 1},
		{"serve.admission_denied", "count", float64(after.Admission.Denied - before.Admission.Denied), 1},
		{"serve.backend_rejects", "count", float64(b1.rejected - b0.rejected), 1},
		{"serve.backend_errors", "count", float64(errs), 1},
		{"serve.retry_denied", "count", float64(after.RetryDenied - before.RetryDenied), 1},
		{"serve.backend_busy_ratio", "ratio", (b1.busy - b0.busy).Seconds() / (wall.Seconds() * float64(nBackends)), nBackends},
	}
}

// runGwForward measures bare forwarding on the paper's Table-1 system: the
// NASH table at rho=0.6, backends doing ~1 us of work, a closed loop on
// nproc connections. Admission runs on every request but never denies.
func runGwForward(cfg config) (*report, error) {
	sys, err := experiments.Table1System(0.6)
	if err != nil {
		return nil, err
	}
	src := rng.NewSource(cfg.seed)
	const backendRate = 1e6
	var nash *core.Result
	setup := func() (*fleetStack, error) {
		res, err := core.Solve(sys, core.Options{})
		if err != nil {
			return nil, err
		}
		nash = res
		rates := make([]float64, sys.Computers())
		for j := range rates {
			rates[j] = backendRate
		}
		st, urls, err := startBackends(rates, src)
		if err != nil {
			return nil, err
		}
		st.gw, err = serve.NewGateway(serve.GatewayConfig{
			Backends:    urls,
			Rates:       sys.Rates,
			Arrivals:    sys.Arrivals,
			Profile:     res.Profile,
			Seed:        src.Stream("gateway").Uint64(),
			FillRate:    1e8,
			Burst:       1e6,
			ProbeEvery:  probeEvery,
			Retries:     retries,
			RetryBudget: retryBudget,
		})
		if err == nil {
			err = st.gw.Start()
		}
		if err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	}
	const setups = 3
	st, setupS, setupN, err := repeatSetup(setups, setup, (*fleetStack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep := &report{}
	if !nash.Converged {
		rep.problem("core.Solve did not converge")
	}
	heap := liveHeapMB()

	pick, err := userPicker(sys.Arrivals)
	if err != nil {
		return nil, err
	}
	tgt := newLoadTarget(st.gw.URL(), sys.Users(), sys.Computers())
	client := newLoadClient(cfg.procs)
	defer client.CloseIdleConnections()
	// Warm-up: fill the connection pools before timing.
	rep.merge(loadReport(closedLoop(client, tgt, cfg.procs, pick, src.Substream(0), time.Now().Add(time.Second), newTracer(false))))

	counts := make([]int64, sys.Computers())
	phase := 0
	run := func(seconds float64, tr *tracer) (*report, error) {
		phase++
		ls, p := gatewayPhase(st, tr, func() *loadStats {
			return closedLoop(client, tgt, cfg.procs, pick, src.Substream(uint64(phase)), time.Now().Add(time.Duration(seconds*1e9)), tr)
		})
		for _, s := range ls.samples {
			counts[s.backend]++
		}
		return p, nil
	}
	untraced, traced, tr, err := phases(cfg, run)
	if err != nil {
		return nil, err
	}
	rep.merge(untraced)
	rep.e2e = append([]metric{{"setup_s", "s", setupS, setupN}, {"heap_mb", "MB", heap, 1}}, untraced.e2e...)

	// The served split must match the table: backend j's expected share is
	// sum_i (phi_i / Phi) s_ij, since users are drawn by phi.
	dev := splitDeviation(sys, nash.Profile, counts)
	if dev > 0.01 {
		rep.problem("served split deviates from the NASH table by %.4f (limit 0.01)", dev)
	}
	if traced != nil {
		rep.merge(traced)
		if err := finish(cfg, rep, untraced, traced, tr, metric{"serve.split_max_dev", "ratio", dev, int(sum(counts))}); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func loadReport(ls *loadStats) *report {
	p := &report{attempted: ls.attempted, failed: ls.failed, problems: ls.problems}
	if ls.backlog {
		p.problem("open-loop backlog: the delay before sending grew across the run")
	}
	return p
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}

// splitDeviation is the largest gap between a backend's served share and
// the share the routing profile predicts for users drawn by phi.
func splitDeviation(sys *game.System, p game.Profile, counts []int64) float64 {
	total := float64(sum(counts))
	if total == 0 {
		return math.Inf(1)
	}
	phi := 0.0
	for _, a := range sys.Arrivals {
		phi += a
	}
	var worst float64
	for j := range counts {
		want := 0.0
		for i, a := range sys.Arrivals {
			want += a / phi * p[i][j]
		}
		worst = math.Max(worst, math.Abs(float64(counts[j])/total-want))
	}
	return worst
}

// Population shape: 20 000 users in 40 classes on 64 machines (the Table-1
// speed mix four times over, rates x1000), offered an open-loop 1500 req/s.
// On two vCPUs and two connections, 3000 req/s kept the senders busy
// enough that a slower spell of the machine doubled the median latency;
// at 1500 req/s the run stays under capacity and the median steady.
const (
	popClasses   = 40
	popPerClass  = 500
	popRate      = 1500.0
	popRho       = 0.6
	popDriftSize = 4 // classes drifted per control cycle
	popEpsUser   = 1e-6
)

// population is gw_population's game: the class system, the user→class map
// and the per-user arrival rates the gateway is built with.
type population struct {
	rates       []float64
	classes     []megascale.Class
	userToClass []int
	arrivals    []float64
}

func newPopulation() *population {
	p := &population{}
	for rep := 0; rep < 4; rep++ {
		for _, mu := range experiments.Table1Rates() {
			p.rates = append(p.rates, mu*1000)
		}
	}
	// The class weights are fixed, as in EXT11, so every seed serves the
	// same population shape and only the traffic and drift vary.
	p.classes = make([]megascale.Class, popClasses)
	for c := range p.classes {
		p.classes[c] = megascale.Class{Count: popPerClass, Phi: 0.5 + 0.1*float64(c%11)}
	}
	p.normalize()
	for c := range p.classes {
		for k := 0; k < popPerClass; k++ {
			p.userToClass = append(p.userToClass, c)
			p.arrivals = append(p.arrivals, p.classes[c].Phi)
		}
	}
	return p
}

// normalize rescales the class rates so the offered load is popRho of the
// capacity.
func (p *population) normalize() {
	capacity, load := 0.0, 0.0
	for _, mu := range p.rates {
		capacity += mu
	}
	for _, c := range p.classes {
		load += c.Weight()
	}
	for c := range p.classes {
		p.classes[c].Phi *= popRho * capacity / load
	}
}

// drift moves popDriftSize seeded classes' rates by at most 5% and
// renormalizes, returning the new class system.
func (p *population) drift(s *rng.Stream) (*megascale.ClassSystem, error) {
	for k := 0; k < popDriftSize; k++ {
		c := s.Intn(len(p.classes))
		p.classes[c].Phi *= 1 + s.Uniform(-0.05, 0.05)
	}
	p.normalize()
	return megascale.NewClassSystem(p.rates, p.classes)
}

func (p *population) userArrivals() []float64 {
	out := make([]float64, len(p.userToClass))
	for i, c := range p.userToClass {
		out[i] = p.classes[c].Phi
	}
	return out
}

// controlPlane is the benchmark acting as the fleet leader and scraper for
// gw_population: every second it drifts the population, re-solves warm,
// expands and installs the table, encodes the fleet wire table and tries to
// decode it, then scrapes /metrics.
type controlPlane struct {
	pop      *population
	gw       *serve.Gateway
	machines []fleet.Machine
	drift    *rng.Stream
	client   *http.Client
	prev     *megascale.ClassProfile
	cs       *megascale.ClassSystem
	version  uint64
	body     bytes.Buffer // scrape buffer, reused so the scraper allocates nothing

	// per-phase observations
	cycle, solve, expand, install, encode, scrape []float64
	rounds, solves, skips, tableBytes             int64
	refused, scrapeBytes, scrapeSeries            int64
	problems                                      []string
}

func (c *controlPlane) fail(format string, args ...any) {
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *controlPlane) reset() {
	c.cycle, c.solve, c.expand, c.install, c.encode, c.scrape = nil, nil, nil, nil, nil, nil
	c.rounds, c.solves, c.skips, c.tableBytes, c.refused, c.scrapeBytes, c.scrapeSeries = 0, 0, 0, 0, 0, 0, 0
	c.problems = nil
}

// runCycle performs one control cycle, recording spans.
func (c *controlPlane) runCycle(tr *tracer) {
	t0 := time.Now()
	cs, err := c.pop.drift(c.drift)
	if err != nil {
		c.fail("drifted class system: %v", err)
		return
	}
	t1 := time.Now()
	res, err := megascale.SolveFrom(cs, c.prev, megascale.Options{Init: core.InitProportional, Epsilon: popEpsUser * float64(len(c.pop.userToClass))})
	t2 := time.Now()
	if err != nil || !res.Converged {
		c.fail("warm SolveFrom: %v", err)
		return
	}
	prof, err := res.Profile.ExpandUsers(cs, c.pop.userToClass)
	t3 := time.Now()
	if err != nil {
		c.fail("ExpandUsers: %v", err)
		return
	}
	c.version++
	if err := c.gw.InstallTable(serve.Table{Epoch: 1, Version: c.version, Profile: prof}); err != nil {
		c.fail("InstallTable v%d: %v", c.version, err)
		return
	}
	t4 := time.Now()
	if e, v := c.gw.TableEpoch(); e != 1 || v != c.version {
		c.fail("TableEpoch (%d, %d) after installing (1, %d)", e, v, c.version)
	}
	wire, err := fleet.EncodeTable(fleet.Table{Epoch: 1, Version: c.version, Machines: c.machines,
		Arrivals: c.pop.userArrivals(), AdmitFrac: 1, OfferedRate: popRate, Profile: prof})
	t5 := time.Now()
	if err != nil {
		c.fail("EncodeTable: %v", err)
		return
	}
	if back, err := fleet.DecodeTable(wire); err != nil {
		c.refused++
	} else if back.Version != c.version || len(back.Profile) != len(prof) {
		c.fail("DecodeTable round trip: version %d rows %d", back.Version, len(back.Profile))
	}
	t6 := time.Now()
	c.prev, c.cs = res.Profile, cs
	c.cycle = append(c.cycle, t4.Sub(t1).Seconds())
	c.solve = append(c.solve, t2.Sub(t1).Seconds())
	c.expand = append(c.expand, t3.Sub(t2).Seconds())
	c.install = append(c.install, t4.Sub(t3).Seconds())
	c.encode = append(c.encode, t5.Sub(t4).Seconds())
	c.rounds += int64(res.Rounds)
	c.solves += res.Solves
	c.skips += res.Skips
	c.tableBytes = int64(len(wire))
	if tr.on {
		root := tr.add("control.cycle", 0, 0, t0, t6)
		id := tr.traceOf(root)
		tr.add("megascale.solve_from", root, id, t1, t2)
		tr.add("megascale.expand_users", root, id, t2, t3)
		tr.add("serve.install_table", root, id, t3, t4)
		tr.add("fleet.encode_table", root, id, t4, t5)
		tr.add("fleet.decode_table", root, id, t5, t6)
	}
}

// scrapeOnce GETs and reads /metrics, counting its bytes and series.
func (c *controlPlane) scrapeOnce(tr *tracer) {
	s0 := time.Now()
	resp, err := c.client.Get(c.gw.URL() + "/metrics")
	if err != nil {
		c.fail("GET /metrics: %v", err)
		return
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		c.fail("GET /metrics: status %d, %v", resp.StatusCode, err)
		return
	}
	s1 := time.Now()
	tr.add("serve.scrape", 0, 0, s0, s1)
	c.scrape = append(c.scrape, s1.Sub(s0).Seconds())
	c.scrapeBytes = int64(c.body.Len())
	c.scrapeSeries = 0
	for rest := c.body.Bytes(); len(rest) > 0; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if len(line) > 0 && line[0] != '#' {
			c.scrapeSeries++
		}
	}
}

// loop runs a control cycle every second and a scrape every second, half
// a second apart (two independent actors, as a leader and a scraper
// would be), until stop is closed.
func (c *controlPlane) loop(stop <-chan struct{}, tr *tracer) {
	tick := time.NewTicker(time.Second / 2)
	defer tick.Stop()
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		case <-tick.C:
			if n%2 == 0 {
				c.runCycle(tr)
			} else {
				c.scrapeOnce(tr)
			}
		}
	}
}

func (c *controlPlane) layerMetrics() []metric {
	n := len(c.cycle)
	return []metric{
		{"control.cycle_ms_p50", "ms", ms(c.cycle, 0.5), n},
		{"megascale.resolve_ms_p50", "ms", ms(c.solve, 0.5), n},
		{"megascale.rounds", "count", float64(c.rounds), n},
		{"megascale.solves", "count", float64(c.solves), n},
		{"megascale.skips", "count", float64(c.skips), n},
		{"megascale.expand_ms_p50", "ms", ms(c.expand, 0.5), n},
		{"serve.install_ms_p50", "ms", ms(c.install, 0.5), n},
		{"serve.install_ms_max", "ms", ms(c.install, 1), n},
		{"fleet.encode_ms_p50", "ms", ms(c.encode, 0.5), n},
		{"fleet.table_bytes", "B", float64(c.tableBytes), n},
		{"fleet.decode_refused", "count", float64(c.refused), n},
		{"serve.scrape_ms_p50", "ms", ms(c.scrape, 0.5), len(c.scrape)},
		{"serve.scrape_bytes", "B", float64(c.scrapeBytes), len(c.scrape)},
		{"serve.scrape_series", "count", float64(c.scrapeSeries), len(c.scrape)},
	}
}

// runGwPopulation measures a 20 000-user population under an open-loop
// Poisson load at popRate while the benchmark re-solves, installs and
// ships the table and scrapes /metrics every second.
func runGwPopulation(cfg config) (*report, error) {
	src := rng.NewSource(cfg.seed)
	pop := newPopulation()
	var cold *megascale.Result
	var cs *megascale.ClassSystem
	var newGatewayS []float64
	setup := func() (*fleetStack, error) {
		var err error
		if cs, err = megascale.NewClassSystem(pop.rates, pop.classes); err != nil {
			return nil, err
		}
		cold, err = megascale.Solve(cs, megascale.Options{Init: core.InitProportional, Epsilon: popEpsUser * float64(len(pop.userToClass))})
		if err != nil {
			return nil, fmt.Errorf("cold solve: %w", err)
		}
		prof, err := cold.Profile.ExpandUsers(cs, pop.userToClass)
		if err != nil {
			return nil, err
		}
		st, urls, err := startBackends(pop.rates, src)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		st.gw, err = serve.NewGateway(serve.GatewayConfig{
			Backends:    urls,
			Rates:       pop.rates,
			Arrivals:    pop.arrivals,
			Profile:     prof,
			Seed:        src.Stream("gateway").Uint64(),
			ProbeEvery:  probeEvery,
			Retries:     retries,
			RetryBudget: retryBudget,
		})
		newGatewayS = append(newGatewayS, time.Since(t).Seconds())
		if err == nil {
			err = st.gw.Start()
		}
		if err != nil {
			st.close()
			return nil, err
		}
		return st, nil
	}
	const setups = 3
	st, setupS, setupN, err := repeatSetup(setups, setup, (*fleetStack).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	heap := liveHeapMB()

	machines := make([]fleet.Machine, len(pop.rates))
	for j, b := range st.backends {
		machines[j] = fleet.Machine{URL: b.URL(), Rate: pop.rates[j], Active: true}
	}
	ctrl := &controlPlane{pop: pop, gw: st.gw, machines: machines, drift: src.Stream("drift"),
		client: &http.Client{Timeout: 30 * time.Second}, prev: cold.Profile, cs: cs}
	defer ctrl.client.CloseIdleConnections()

	pick, err := userPicker(pop.arrivals)
	if err != nil {
		return nil, err
	}
	tgt := newLoadTarget(st.gw.URL(), len(pop.arrivals), len(pop.rates))
	client := newLoadClient(cfg.procs)
	defer client.CloseIdleConnections()
	rep := &report{}
	// Warm-up: half a second of the open loop, untimed.
	rep.merge(loadReport(openLoop(client, tgt, cfg.procs, poissonSchedule(popRate, 0.5, src.Stream("warmup"), pick), time.Now(), newTracer(false))))

	phase := 0
	run := func(seconds float64, tr *tracer) (*report, error) {
		phase++
		ctrl.reset()
		sched := poissonSchedule(popRate, seconds, src.Stream(fmt.Sprintf("schedule/%d", phase)), pick)
		_, p := gatewayPhase(st, tr, func() *loadStats {
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctrl.loop(stop, tr)
			}()
			defer wg.Wait()
			defer close(stop)
			return openLoop(client, tgt, cfg.procs, sched, time.Now(), tr)
		})
		p.problems = append(p.problems, ctrl.problems...)
		if len(ctrl.cycle) == 0 {
			p.problem("no control cycle completed")
		}
		if tr.on {
			p.layer = append(p.layer, ctrl.layerMetrics()...)
		}
		return p, nil
	}
	untraced, traced, tr, err := phases(cfg, run)
	if err != nil {
		return nil, err
	}
	rep.merge(untraced)
	rep.e2e = append([]metric{{"setup_s", "s", setupS, setupN}, {"heap_mb", "MB", heap, 1}}, untraced.e2e...)

	if ok, dev, err := megascale.VerifyEquilibrium(ctrl.cs, ctrl.prev, popEpsUser); err != nil || !ok {
		rep.problem("installed table is not a %g-equilibrium (deviation %g, %v)", popEpsUser, dev, err)
	}
	if traced != nil {
		rep.merge(traced)
		err := finish(cfg, rep, untraced, traced, tr,
			metric{"serve.newgateway_s", "s", median(newGatewayS), len(newGatewayS)},
			metric{"serve.heap_after_setup_mb", "MB", heap, 1},
			metric{"serve.alias_classes", "count", float64(aliasClasses(ctrl.client, st.gw.URL(), rep)), 1},
		)
		if err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// aliasClasses reads the number of alias samplers the installed table
// built, from /routing.
func aliasClasses(client *http.Client, base string, rep *report) int {
	resp, err := client.Get(base + "/routing")
	if err != nil {
		rep.problem("GET /routing: %v", err)
		return 0
	}
	defer resp.Body.Close()
	var rs serve.RoutingStatus
	if err := json.NewDecoder(resp.Body).Decode(&rs); err != nil {
		rep.problem("GET /routing: %v", err)
		return 0
	}
	return rs.AliasClasses
}
