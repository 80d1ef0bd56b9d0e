#!/bin/sh
# Full verification: the tier-1 gate (build + tests) plus static analysis
# and the race detector over the concurrent packages (the distributed ring
# with its fault-tolerance layer, the online balancer, the live HTTP
# serving stack, and the gateway-fleet control plane — including the
# self-healing chaos tests in internal/serve and the leader-failover tests
# in internal/fleet; the long crash/recovery e2e runs gate themselves
# behind -short).
set -eu

cd "$(dirname "$0")"

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./internal/dist/... ./internal/online/... ./internal/serve/... ./internal/replicate/... ./internal/cluster/... ./internal/fleet/... ./internal/megascale/..."
go test -race ./internal/dist/... ./internal/online/... ./internal/serve/... ./internal/replicate/... ./internal/cluster/... ./internal/fleet/... ./internal/megascale/...

# Fuzz smoke: a short randomized run of each native fuzz target (bisection
# root finder, M/M/1 queue-depth inversion, fleet wire codec, durable
# snapshot decoder, user-class spec parser). Regressions show up as crasher
# inputs; Go allows one -fuzz target per invocation.
echo "== go test -fuzz (smoke, 10s each)"
go test -run '^$' -fuzz FuzzBisect -fuzztime 10s ./internal/numeric
go test -run '^$' -fuzz FuzzQueueInversion -fuzztime 10s ./internal/estimate
go test -run '^$' -fuzz FuzzFleetWire -fuzztime 10s ./internal/fleet
go test -run '^$' -fuzz FuzzWALDecode -fuzztime 10s ./internal/fleet
go test -run '^$' -fuzz FuzzParseClasses -fuzztime 10s ./internal/cli
go test -run '^$' -fuzz FuzzInstallTable -fuzztime 10s ./internal/serve

# Serving-throughput regression gates: the forwarding hot path must keep
# its >=3x advantage over the pre-PR per-request work, and the closed-loop
# harness must keep exposing coordinated omission (corrected percentiles
# reflect a seeded stall the uncorrected view hides). TestForwardPathAllocs
# below holds the hot path at zero steady-state allocations.
echo "== go test -run 'HotPathSpeedup|CoordinatedOmission' ./internal/serve"
go test -run 'HotPathSpeedup|CoordinatedOmission' -count=1 ./internal/serve

# Allocation-regression gate: the steady-state DES, cluster-job, gateway
# record and megascale solver round paths must stay at zero allocations per
# operation (the testing.AllocsPerRun tests; benchmarks in bench.sh track
# the same paths).
echo "== go test -run 'Allocs' ./internal/des ./internal/cluster ./internal/serve ./internal/megascale"
go test -run 'Allocs' ./internal/des ./internal/cluster ./internal/serve ./internal/megascale

# Multi-core concurrency gate: the sharded admission limiter's property
# tests and the per-class latency accounting's concurrent-vs-reference test
# at 1, 2 and 4 Ps, repeated, so a timing bug that only appears with real
# parallelism (as the stale-timestamp over-admission did) fails here even on
# a machine where the plain test run happens to use one P.
echo "== go test -run 'ShardedBucket|ObserveMatches' -cpu 1,2,4 -count=5 ./internal/serve"
go test -run 'ShardedBucket|ObserveMatches' -cpu 1,2,4 -count=5 ./internal/serve

# The benchmark module (perfbench/, its own go.mod) drives the gateway,
# fleet wire codec, solver and simulator through their public entry points;
# vet and unit-test it so an API change that breaks the benchmark fails
# here rather than at benchmark time.
echo "== (cd perfbench && go vet ./... && go test ./...)"
(cd perfbench && go vet ./... && go test ./...)

echo "verify: OK"
