package serve

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"nashlb/internal/rng"
)

// TestShardedBucketMatchesReference pins the exactness claim: with a chunk
// size of one, the sharded bucket consults the reservoir on every decision
// and must agree with the unsharded TokenBucket decision-for-decision on
// the same seeded arrival schedule, no matter which shard each arrival
// lands on.
func TestShardedBucketMatchesReference(t *testing.T) {
	const fill, burst = 50.0, 10.0
	src := rng.NewSource(42)
	stream := src.Stream("admission/schedule")
	shardPick := src.Stream("admission/shard")

	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	sb := newShardedBucket(fill, burst, 4, 1, clock)
	ref := NewTokenBucket(fill, burst)
	ref.now = clock

	const steps = 20000
	for k := 0; k < steps; k++ {
		// Arrivals slightly above capacity, so both admit and deny paths
		// (including the notBefore fast-deny) see heavy traffic.
		now = now.Add(time.Duration(stream.Exp(fill*1.3) * float64(time.Second)))
		sh := &sb.shards[shardPick.Intn(len(sb.shards))]
		got := sb.admitOn(sh)
		want := ref.Allow()
		if got != want {
			t.Fatalf("step %d: sharded=%v reference=%v", k, got, want)
		}
	}
	st := sb.Stats()
	if st.Admitted+st.Denied != steps {
		t.Fatalf("outcomes %d+%d != %d steps", st.Admitted, st.Denied, steps)
	}
	if st.CachedTokens != 0 {
		t.Fatalf("chunk=1 cached %g tokens; want 0", st.CachedTokens)
	}
}

// TestShardedBucketChunkedBound drives the chunked (fast) configuration on
// an injected clock and checks the global safety invariant after every
// single step: admissions since construction never exceed fill·elapsed +
// burst. Chunked pre-debits may skew which shard admits, but can never
// mint tokens.
func TestShardedBucketChunkedBound(t *testing.T) {
	const fill, burst = 200.0, 40.0
	src := rng.NewSource(7)
	stream := src.Stream("admission/chunked")
	shardPick := src.Stream("admission/chunkedshard")

	start := time.Unix(0, 0)
	now := start
	clock := func() time.Time { return now }
	sb := newShardedBucket(fill, burst, 4, 8, clock)

	const steps = 20000
	for k := 0; k < steps; k++ {
		now = now.Add(time.Duration(stream.Exp(fill*1.5) * float64(time.Second)))
		sb.admitOn(&sb.shards[shardPick.Intn(len(sb.shards))])
		st := sb.Stats()
		bound := burst + fill*now.Sub(start).Seconds()
		if float64(st.Admitted) > bound+1e-6 {
			t.Fatalf("step %d: %d admitted > bound %g", k, st.Admitted, bound)
		}
	}
	// The chunked bucket must not systematically under-admit either: over a
	// long overloaded run it should admit close to the bound.
	st := sb.Stats()
	bound := burst + fill*now.Sub(start).Seconds()
	if float64(st.Admitted) < 0.9*bound-float64(sb.chunk*float64(len(sb.shards))) {
		t.Fatalf("admitted %d, far below bound %g", st.Admitted, bound)
	}
	if st.Refills == 0 {
		t.Fatal("chunked bucket never pulled a reservoir grant")
	}
}

// TestShardedBucketStealing pins the no-stranded-tokens property: tokens
// cached on one shard are spendable through another shard once the
// reservoir is dry.
func TestShardedBucketStealing(t *testing.T) {
	const fill, burst = 1.0, 16.0
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	sb := newShardedBucket(fill, burst, 4, 8, clock)

	// First admission through shard 0 pulls a chunk of 8 and caches 7.
	if !sb.admitOn(&sb.shards[0]) {
		t.Fatal("first admission denied with a full bucket")
	}
	if got := sb.Stats().CachedTokens; got != 7 {
		t.Fatalf("cached %g tokens after first chunk, want 7", got)
	}
	// Admissions through shard 1 drain the reservoir's remaining 8, then
	// must steal shard 0's cache instead of denying.
	admitted := 1
	for i := 0; i < int(burst)-1; i++ {
		if !sb.admitOn(&sb.shards[1]) {
			t.Fatalf("admission %d denied; %d shard-cached tokens stranded",
				admitted, int(sb.Stats().CachedTokens))
		}
		admitted++
	}
	// All burst tokens spent and no time has passed: the next one must deny.
	if sb.admitOn(&sb.shards[1]) {
		t.Fatalf("admitted %d tokens from a burst of %g", admitted+1, burst)
	}
}

// TestShardedBucketStaleTimestamps is the deterministic form of the
// concurrent over-admission: admitSlow reads the clock before it takes the
// reservoir lock, so the reservoir sees timestamps out of order. An
// injected clock replays that schedule — every caller's reading lags the
// true time by up to 5 ms — and admissions must never exceed fill·elapsed +
// burst of the latest time any caller read. A reservoir that let a stale
// reading rewind its refill mark would credit the same interval twice.
func TestShardedBucketStaleTimestamps(t *testing.T) {
	const fill, burst = 1000.0, 10.0
	const maxLag = 5 * time.Millisecond
	stream := rng.NewSource(11).Stream("admission/stale")

	start := time.Unix(0, 0)
	latest := start.Add(maxLag)
	now := latest
	sb := newShardedBucket(fill, burst, 2, 1, func() time.Time { return now })

	admitted := 0
	for k := 0; k < 20000; k++ {
		latest = latest.Add(time.Duration(stream.Exp(2*fill) * float64(time.Second)))
		now = latest.Add(-time.Duration(stream.Float64() * float64(maxLag)))
		if sb.admitOn(&sb.shards[k%2]) {
			admitted++
		}
		if bound := burst + fill*latest.Sub(start).Seconds(); float64(admitted) > bound {
			t.Fatalf("step %d: %d admitted > bound %g", k, admitted, bound)
		}
	}
}

// TestShardedBucketConcurrentSafety is the satellite property test: under
// the race detector, GOMAXPROCS×4 goroutines hammer Admit on a live clock
// for a fixed window, and total admissions must stay within fill·window +
// burst of real elapsed time. The elapsed window is measured from before
// construction to after the last worker stops, which can only overstate
// the accrual the bucket saw.
func TestShardedBucketConcurrentSafety(t *testing.T) {
	const fill, burst = 2000.0, 100.0
	const window = 300 * time.Millisecond
	workers := runtime.GOMAXPROCS(0) * 4

	start := time.Now()
	b := NewShardedTokenBucket(fill, burst)
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				for i := 0; i < 64; i++ {
					b.Admit()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	st := b.Stats()
	bound := burst + fill*elapsed
	if float64(st.Admitted) > bound {
		t.Fatalf("%d admissions over %.3fs exceed bound %g (fill %g, burst %g)",
			st.Admitted, elapsed, bound, fill, burst)
	}
	if st.Admitted < int64(burst) {
		t.Fatalf("only %d admissions; the hammer should at least drain the burst", st.Admitted)
	}
	if st.Denied == 0 {
		t.Fatalf("no denials at %d×64 spins over %v; overload never engaged", workers, window)
	}
}

// TestShardedBucketDisabled pins the nil contract shared with TokenBucket:
// non-positive parameters disable admission entirely.
func TestShardedBucketDisabled(t *testing.T) {
	b := NewShardedTokenBucket(0, 0)
	if b != nil {
		t.Fatal("zero fill/burst should yield a nil bucket")
	}
	for i := 0; i < 100; i++ {
		if !b.Admit() {
			t.Fatal("nil bucket must always admit")
		}
	}
	if st := b.Stats(); st != (AdmissionStats{}) {
		t.Fatalf("nil bucket stats = %+v, want zero", st)
	}
}
