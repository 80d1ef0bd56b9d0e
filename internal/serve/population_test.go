package serve

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"nashlb/internal/game"
	"nashlb/internal/rng"
)

// populationConfig returns a gateway config for users users in classes
// classes on n backends, the shape of a class-aggregated equilibrium: user
// i belongs to class i%classes, every class has its own arrival rate and
// its own seeded strategy row, and each user holds a private copy of its
// class's row, as megascale's ExpandUsers hands it out. The backends are
// never dialled.
func populationConfig(users, classes, n int, seed uint64) GatewayConfig {
	s := rng.NewSource(seed).Stream("population")
	rows := make([]game.Strategy, classes)
	for c := range rows {
		rows[c] = make(game.Strategy, n)
		var sum float64
		for j := range rows[c] {
			if s.Float64() < 0.25 {
				continue // a zero column, as on machines too slow for the class
			}
			rows[c][j] = s.Float64()
			sum += rows[c][j]
		}
		if sum == 0 {
			rows[c][c%n], sum = 1, 1
		}
		for j := range rows[c] {
			rows[c][j] /= sum
		}
	}
	cfg := GatewayConfig{
		Backends: make([]string, n),
		Rates:    make([]float64, n),
		Arrivals: make([]float64, users),
		Profile:  make(game.Profile, users),
		Seed:     seed,
	}
	for j := range cfg.Backends {
		cfg.Backends[j] = fmt.Sprintf("http://127.0.0.1:1/%d", j)
		cfg.Rates[j] = float64(users)
	}
	for i := range cfg.Arrivals {
		c := i % classes
		cfg.Arrivals[i] = 0.5 + 0.1*float64(c)
		cfg.Profile[i] = rows[c].Clone()
	}
	return cfg
}

// retained builds a gateway over populationConfig, drops the caller's
// profile, and returns the heap bytes the gateway keeps.
func retained(t *testing.T, users, classes, n int) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cfg := populationConfig(users, classes, n, 7)
	g, err := NewGateway(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Profile = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	return float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
}

// TestGatewayHeapPerUser pins the route table's memory to classes, not
// users × machines. A gateway for 20 000 users in 40 classes keeps at most
// 160 bytes per user on 64 machines, everything included (a dense per-user
// profile alone costs 512). And what a user adds — the heap of 40 000 users
// minus that of 20 000 — grows by at most 16 bytes when the machines go
// from 64 to 256 (a dense profile would add 1536). The marginal form keeps
// per-backend state (a pooled transport per backend) and the class rows,
// which do not grow with users, out of the per-user figure.
func TestGatewayHeapPerUser(t *testing.T) {
	if testing.Short() {
		t.Skip("builds gateways of 20 000 and 40 000 users")
	}
	const users, classes = 20000, 40
	perUser := retained(t, users, classes, 64) / users
	marginal := func(n int) float64 {
		return (retained(t, 2*users, classes, n) - retained(t, users, classes, n)) / users
	}
	at64, at256 := marginal(64), marginal(256)
	t.Logf("retained: %.1f B per user at 64 machines; each added user costs %.1f B at 64 machines, %.1f B at 256",
		perUser, at64, at256)
	if perUser > 160 {
		t.Errorf("gateway keeps %.1f B per user at 64 machines, want <= 160", perUser)
	}
	if at256-at64 > 16 {
		t.Errorf("an added user costs %.1f B at 256 machines, %.1f more than at 64 (want <= 16)", at256, at256-at64)
	}
}

// TestRouteTableRoundTrip checks that class rows lose nothing: on seeded
// profiles with repeated rows, signed zeros and fractions at the
// feasibility tolerance, Profile returns the installed profile bit for bit,
// classes are numbered in order of first appearance, and re-installing an
// Equal profile keeps the installed table.
func TestRouteTableRoundTrip(t *testing.T) {
	const users, n = 60, 4
	negZero := math.Copysign(0, -1)
	for seed := uint64(1); seed <= 20; seed++ {
		s := rng.NewSource(seed).Stream("roundtrip")
		pool := []game.Strategy{
			{0.5, 0.5, 0, 0},
			{0.5, 0.5, negZero, 0}, // differs from the row above only in its sign bit
			{1 + game.FeasibilityTol, -game.FeasibilityTol, 0, 0},
			{0.25, 0.25, 0.25, 0.25},
			{0.1, 0.2, 0.3, 0.4},
		}
		p := make(game.Profile, users)
		for i := range p {
			p[i] = pool[s.Intn(len(pool))].Clone()
		}
		arrivals := make([]float64, users)
		for i := range arrivals {
			arrivals[i] = 1
		}
		g, err := NewGateway(GatewayConfig{
			Backends: []string{"http://127.0.0.1:1/a", "http://127.0.0.1:1/b", "http://127.0.0.1:1/c", "http://127.0.0.1:1/d"},
			Rates:    []float64{100, 100, 100, 100},
			Arrivals: arrivals,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.InstallTable(Table{Epoch: 1, Version: 1, Profile: p}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := g.Profile()
		if len(got) != len(p) {
			t.Fatalf("seed %d: Profile has %d rows, want %d", seed, len(got), len(p))
		}
		for i := range p {
			for j := range p[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(p[i][j]) {
					t.Fatalf("seed %d: Profile()[%d][%d] = %g, installed %g", seed, i, j, got[i][j], p[i][j])
				}
			}
		}
		table := g.table.Load()
		seen := map[string]int32{}
		for i := range p {
			key := fmt.Sprint(bits(p[i]))
			want, ok := seen[key]
			if !ok {
				want = int32(len(seen))
				seen[key] = want
			}
			if table.classOf[i] != want {
				t.Fatalf("seed %d: user %d in class %d, want %d (first-appearance order)", seed, i, table.classOf[i], want)
			}
		}
		if len(table.rows) != len(seen) {
			t.Fatalf("seed %d: %d class rows for %d distinct rows", seed, len(table.rows), len(seen))
		}
		if err := g.InstallTable(Table{Epoch: 1, Version: 2, Profile: p.Clone()}); err != nil {
			t.Fatal(err)
		}
		if g.table.Load() != table {
			t.Fatalf("seed %d: re-installing an Equal profile rebuilt the route table", seed)
		}
	}
}

func bits(st game.Strategy) []uint64 {
	out := make([]uint64, len(st))
	for j, f := range st {
		out[j] = math.Float64bits(f)
	}
	return out
}

// BenchmarkCoreGatewayInstall measures a control-plane install of a fresh
// population table: 20 000 users in 40 classes on 64 machines, every
// iteration a new (bitwise different) profile, so the gateway dedups the
// rows and builds 40 alias samplers each time.
func BenchmarkCoreGatewayInstall(b *testing.B) {
	const users, classes, n = 20000, 40, 64
	cfg := populationConfig(users, classes, n, 3)
	g, err := NewGateway(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Two profiles that differ in every row, alternated so no install
	// finds its table already in place.
	profiles := [2]game.Profile{populationConfig(users, classes, n, 4).Profile, populationConfig(users, classes, n, 5).Profile}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.InstallTable(Table{Epoch: 1, Version: uint64(i + 1), Profile: profiles[i%2]}); err != nil {
			b.Fatal(err)
		}
	}
}
