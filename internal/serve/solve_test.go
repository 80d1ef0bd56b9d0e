package serve_test

import (
	"errors"
	"math"
	"testing"

	"nashlb/internal/core"
	"nashlb/internal/experiments"
	"nashlb/internal/game"
	"nashlb/internal/numeric"
	"nashlb/internal/serve"
)

// TestSolveTable pins the serving stack's one equilibrium solver, which
// both the gateway's health re-solve and the fleet leader call: on the
// machines that carry weight, at capacities Rates·weights and the admitted
// load, the equilibrium must match the dense reference solver core.Solve
// (the overall response time at 1e-9); machines with weight 0 must get
// all-zero columns; a shedding table must admit
// DegradedRho·capacity/offered, which leaves every machine below the 0.95
// saturation threshold; and no capacity at all is an error.
func TestSolveTable(t *testing.T) {
	table1, err := experiments.Table1System(0.6)
	if err != nil {
		t.Fatal(err)
	}
	ones := func(n int) []float64 {
		w := make([]float64, n)
		for j := range w {
			w[j] = 1
		}
		return w
	}
	deadFast := ones(16)
	deadFast[15], deadFast[0] = 0, 0 // one 100/s and one 10/s machine out
	ramping := ones(16)
	ramping[14] = 0.5 // a 100/s machine halfway up its recovery ramp

	const degradedRho = 0.8
	cases := []struct {
		name                     string
		rates, arrivals, weights []float64
		wantAdmit                float64
		wantErr                  error
	}{
		{name: "table1-all-up", rates: table1.Rates, arrivals: table1.Arrivals, weights: ones(16), wantAdmit: 1},
		{name: "table1-dead-machines", rates: table1.Rates, arrivals: table1.Arrivals, weights: deadFast, wantAdmit: 1},
		{name: "table1-ramp", rates: table1.Rates, arrivals: table1.Arrivals, weights: ramping, wantAdmit: 1},
		{
			name:  "shed-on-one-survivor",
			rates: []float64{50, 50}, arrivals: []float64{48, 32}, weights: []float64{1, 0},
			wantAdmit: degradedRho * 50 / 80,
		},
		{
			name:  "shed-on-a-ramp",
			rates: []float64{50, 50, 20}, arrivals: []float64{30, 30, 10}, weights: []float64{1, 0.25, 0.5},
			wantAdmit: degradedRho * (50 + 12.5 + 10) / 70,
		},
		{
			name:  "no-capacity",
			rates: []float64{50, 50}, arrivals: []float64{48, 32}, weights: []float64{0, 0},
			wantErr: serve.ErrNoCapacity,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := serve.NewGateway(serve.GatewayConfig{
				Backends:    make([]string, len(tc.rates)),
				Rates:       tc.rates,
				Arrivals:    tc.arrivals,
				DegradedRho: degradedRho,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.SolveTable(tc.weights, tc.arrivals)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var offered float64
			for _, phi := range tc.arrivals {
				offered += phi
			}
			if math.Abs(got.OfferedRate-offered) > 1e-9 {
				t.Fatalf("OfferedRate %g, want %g", got.OfferedRate, offered)
			}
			if math.Abs(got.AdmitFrac-tc.wantAdmit) > 1e-12 {
				t.Fatalf("AdmitFrac %g, want %g", got.AdmitFrac, tc.wantAdmit)
			}

			// Reference: the dense solver on the reduced game.
			var idx []int
			var rates []float64
			for j, w := range tc.weights {
				if w > 0 {
					idx = append(idx, j)
					rates = append(rates, tc.rates[j]*w)
				}
			}
			admitted := make([]float64, len(tc.arrivals))
			for i, phi := range tc.arrivals {
				admitted[i] = phi * got.AdmitFrac
			}
			sys, err := game.NewSystem(rates, admitted)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.Solve(sys, core.Options{})
			if err != nil || !ref.Converged {
				t.Fatalf("reference solve: %v", err)
			}
			reduced := make(game.Profile, len(got.Profile))
			for i, row := range got.Profile {
				if len(row) != len(tc.rates) {
					t.Fatalf("user %d: %d columns, want the full width %d", i, len(row), len(tc.rates))
				}
				for j, w := range tc.weights {
					if w == 0 && row[j] != 0 {
						t.Fatalf("user %d routes %g to weight-0 machine %d", i, row[j], j)
					}
				}
				reduced[i] = make(game.Strategy, len(idx))
				for k, j := range idx {
					reduced[i][k] = row[j]
				}
				if d := numeric.MaxAbsDiff(reduced[i], ref.Profile[i]); d > 1e-7 {
					t.Fatalf("user %d: strategy differs from the reference by %g", i, d)
				}
			}
			// Both solvers stop at the same round-norm tolerance, but the class
			// engine moves users with equal arrival rates (three pairs in
			// Table 1) as one, so the two stop at slightly different points
			// near the unique equilibrium: strategies agree to ~2e-8, user
			// response times to ~1e-8, and the overall response time D to
			// 1e-9.
			times := sys.UserResponseTimes(reduced)
			for i, want := range ref.UserTimes {
				if !numeric.EqualWithin(times[i], want, 1e-8) {
					t.Fatalf("user %d: response time %g vs reference %g", i, times[i], want)
				}
			}
			if d := sys.OverallResponseTime(reduced); !numeric.EqualWithin(d, ref.OverallTime, 1e-9) {
				t.Fatalf("overall response time %g vs reference %g", d, ref.OverallTime)
			}
			if got.AdmitFrac < 1 {
				for k, l := range sys.Loads(reduced) {
					if l >= 0.95*rates[k] {
						t.Fatalf("admitted load %g on machine %d reaches 0.95 of capacity %g", l, idx[k], rates[k])
					}
				}
			}
		})
	}
}
