package serve

import (
	"errors"
	"fmt"
	"sync/atomic"

	"nashlb/internal/game"
)

// Table is an externally solved routing state, installed atomically by a
// control plane (the gateway fleet): one equilibrium profile over the
// gateway's full machine universe, the active-machine set, and the
// degraded-mode admission decision — all fenced by a monotonically
// increasing (epoch, version) so a deposed leader's straggler table can
// never overwrite a newer one (split-brain prevention, dist.Fence).
type Table struct {
	// Epoch names the leader incarnation that solved this table; Version
	// orders tables within an epoch. InstallTable rejects anything not
	// strictly newer than the last accepted pair with ErrStaleTable.
	Epoch   uint64
	Version uint64
	// Profile is the solved routing profile: one row per user, one column
	// per backend in the gateway's configured universe. Columns of inactive
	// machines must be zero (CheckStrategy enforces row feasibility).
	Profile game.Profile
	// Active marks which machines are in rotation; nil means all. An
	// inactive (drained) machine receives no traffic, even as a per-request
	// fallback — the control plane is emptying it for scale-down.
	Active []bool
	// AdmitFrac in (0, 1) installs degraded-mode shedding admitting only
	// this fraction of OfferedRate; any other value clears shedding. The
	// control plane sets it when the offered load is infeasible for the
	// active capacity.
	AdmitFrac float64
	// OfferedRate is this gateway's offered load in requests/second, sizing
	// the degraded-mode bucket (ignored unless AdmitFrac is in (0, 1)).
	OfferedRate float64
}

// ErrStaleTable reports an InstallTable whose (epoch, version) has been
// superseded by one already installed.
var ErrStaleTable = errors.New("serve: stale routing table (superseded epoch)")

// InstallTable atomically applies a control-plane routing table: the hot-swap
// path of re-equilibration, driven from outside. The fence accepts only
// strictly newer (epoch, version) pairs, so a partitioned old leader pushing
// a stale table is refused and learns it has been deposed. On acceptance the
// active set, the degraded-mode admission and the routing profile swap
// together through install, so no install can interleave with another.
func (g *Gateway) InstallTable(t Table) error {
	n, m := len(g.cfg.Backends), len(g.cfg.Arrivals)
	if len(t.Profile) != m {
		return fmt.Errorf("serve: table has %d rows for %d users", len(t.Profile), m)
	}
	if t.Active != nil && len(t.Active) != n {
		return fmt.Errorf("serve: table has %d active flags for %d backends", len(t.Active), n)
	}
	// A control plane re-pushing an unchanged equilibrium (anti-entropy
	// refresh) should not pay alias re-resolution: when the incoming profile
	// is bitwise-identical to the installed one, the pre-resolved table is
	// reused and only the fence, active set and admission state advance.
	table := g.table.Load()
	if !table.routes(t.Profile) {
		var err error
		table, err = newRouteTable(t.Profile, n)
		if err != nil {
			return err
		}
	}
	return g.install(&t, table, t.shedConfig(), &g.met.tableInstalls)
}

// keepShed is install's "leave degraded-mode admission as it is" argument.
var keepShed = new(shedConfig)

// install is the one writer of the gateway's routing state: the route
// table, the degraded-mode admission state and the active set swap together
// under installMu, so a local re-solve can never leave one table's shedding
// beside another table's routes. ctrl is the control-plane table being
// applied: its (epoch, version) must pass the fence first and its Active
// flags replace the active set. Local writers pass a nil ctrl and keep the
// control plane's last active set; a nil table and keepShed likewise leave
// that part as it is. An install bumps the caller's counter (nil counts
// nothing); once Close has begun nothing is installed, though a
// control-plane table still advances the fence. The only error is a
// control-plane table's ErrStaleTable, so local writers ignore the result.
// Callers build route tables outside the lock.
func (g *Gateway) install(ctrl *Table, table *routeTable, shed *shedConfig, installs *atomic.Int64) error {
	g.installMu.Lock()
	defer g.installMu.Unlock()
	if ctrl != nil && !g.fence.Accept(ctrl.Epoch, ctrl.Version) {
		return ErrStaleTable
	}
	if g.closing() {
		return nil
	}
	if ctrl != nil {
		for j := range g.drained {
			g.drained[j].Store(ctrl.Active != nil && !ctrl.Active[j])
		}
	}
	if shed != keepShed {
		g.shed.Store(shed)
	}
	if table != nil {
		g.table.Store(table)
	}
	if installs != nil {
		installs.Add(1)
	}
	return nil
}

// shedConfig returns the degraded-mode admission state t asks for: shedding
// down to AdmitFrac·OfferedRate when AdmitFrac is in (0, 1), none otherwise.
func (t Table) shedConfig() *shedConfig {
	if t.AdmitFrac > 0 && t.AdmitFrac < 1 {
		return newShedConfig(t.AdmitFrac*t.OfferedRate, t.AdmitFrac, t.OfferedRate)
	}
	return nil
}

// TableEpoch returns the (epoch, version) of the last installed
// control-plane table — (0, 0) when the gateway has only routed locally.
func (g *Gateway) TableEpoch() (epoch, version uint64) {
	return g.fence.Current()
}

// Drain stops admission without stopping service: new requests are refused
// with 503 + Retry-After (callers fail over to a fleet peer) while in-flight
// requests finish; Close then completes the shutdown. Draining is one-way.
func (g *Gateway) Drain() { g.draining.Store(true) }

// Draining reports whether Drain has been called.
func (g *Gateway) Draining() bool { return g.draining.Load() }

// AdmittedPerUser returns the cumulative admitted-request count per user —
// the raw counts a fleet node differentiates over time to estimate this
// gateway's per-user arrival rates (its traffic share of the game).
func (g *Gateway) AdmittedPerUser() []int64 {
	out := make([]int64, len(g.met.userAdmitted))
	for i := range out {
		out[i] = g.met.userAdmitted[i].Load()
	}
	return out
}

// HealthWeights returns the health layer's effective capacity weight per
// backend (nil when the health layer is disabled). The control plane folds
// these into the game as reduced machine capacities.
func (g *Gateway) HealthWeights() []float64 {
	if g.health == nil {
		return nil
	}
	return g.health.weights()
}
