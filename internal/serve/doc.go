// Package serve is the live serving layer of the reproduction: a real
// networked load-balancing gateway (nashgate) that routes actual HTTP
// traffic by the paper's Nash equilibrium, plus the backend workers it
// balances across and an open-loop Poisson load generator to drive it.
//
// The pipeline mirrors a production serving stack:
//
//	request → admission (token bucket + saturation reject)
//	        → routing (per-user weighted sampling over s_ij, O(1) alias method)
//	        → per-backend bounded FCFS queue (exponential work at rate mu_j)
//	        → metrics (/metrics text format: counters, gauges, log histograms
//	          per user class)
//
// Closing the paper's loop on measured state, the gateway periodically polls
// every backend's /queue depth, inverts the depths to load estimates with
// internal/estimate (Remark 2 of the paper), lets one user at a time play a
// best response via internal/online's balancer, and hot-swaps the routing
// table atomically — no user ever needs the others' arrival rates. The same
// smoothed estimate drives the saturation reject.
//
// The health layer's survivor re-solve and the gateway fleet's leader
// compute their equilibria with one solver, Gateway.SolveTable (capacity
// weights and arrivals in, full-width table with degraded-mode admission
// out), and every writer of the routing state — construction, the online
// best replies, the survivor re-solve and the control plane's InstallTable —
// swaps the route table, shedding state and active set through one install
// routine under one lock. The route table keeps each distinct strategy row
// once — at equilibrium one per user class — with a per-user class index,
// so routing state is O(classes × machines + users), never users ×
// machines; Gateway.Profile expands it on demand and /routing reports the
// rows with their member counts.
//
// Response times are accounted per user class — users with bitwise-equal
// arrival rate phi_i, which the game treats as interchangeable and
// megascale.FromSystem aggregates for the solver — in one log histogram per
// class under one lock, so latency state and /metrics cardinality are
// bounded by the class count, never by the user count.
//
// Every stochastic element (service draws, routing picks, interarrival
// times) runs on seeded internal/rng streams, so a loadgen run's routing
// split is exactly reproducible and can be checked against the equilibrium
// fractions s_ij, while the measured response times validate against the
// M/M/1 closed form and the discrete-event simulator end-to-end (EXT8).
package serve
