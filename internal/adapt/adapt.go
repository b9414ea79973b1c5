// Package adapt is the closed-loop adaptive control plane over a deployed
// MCSCEC fleet: it learns per-device costs from live signals, re-runs the
// paper's allocation on what it learned, and migrates coded blocks while
// queries keep flowing.
//
// The paper's TA1/TA2 allocation (Algorithms 1–2) is solved once, against
// unit costs assumed known and stationary. Real edge fleets drift: devices
// straggle chronically, links degrade, machines disappear. This package adds
// the feedback loop the paper's §VI leaves to future work, without touching
// its optimality or security arguments — the loop only changes *which*
// instance is solved and *where* blocks live, never how they are coded:
//
//   - each control cycle prices every device from the fleet's straggler
//     record — the same per-device attempt latencies the gather ranks
//     replicas by, normalised per coded row — and the transport's last
//     round trip: a cost multiplier over its provisioning-time base cost;
//   - a Planner periodically re-runs TA2 on the learned costs and applies
//     hysteresis — a candidate plan is adopted only when it beats the
//     incumbent, evaluated at the same learned costs, by a configurable
//     margin, outside a cooldown window — so noise cannot flap the fleet;
//   - a Controller executes adopted plans live. A plan the current encoding
//     can reach is a set of independent block moves: each block is re-pushed
//     to its new device and the replica sets swap atomically (fleet.Rehost).
//     Any other plan — a different r, or the same r with a block landing on
//     a device that already saw another one — reshapes the whole deployment:
//     new rounds park on a gate, in-flight rounds drain, the data matrix is
//     reconstructed and re-encoded under fresh masking rows, and the fresh
//     fleet session swaps in (engine.Swappable.SwapDrained) — no query is
//     ever failed by a migration.
//
// Security rests on one placement invariant: within one encoding (one R, one
// fleet.Session) an address is bound to at most one block index, from the
// first Store attempted toward it until the session ends. Def. 2 / Theorem 3
// bound what a device learns from a single block B_j·T, and a passive device
// keeps everything it was ever sent, so its lifetime view must stay that
// single block — a rehost moves B_j·T verbatim, but only onto a device that
// has seen nothing else of this R. Planner.Decide is the one place that
// decides which moves that admits (given the substrate's Bindings) and
// fleet's device.bind the one place that enforces it. A reshape draws an
// independent R, so views from different encodings share no randomness: the
// union over epochs is safe exactly when each epoch is.
package adapt

import (
	"time"

	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/obs/trace"
)

// Defaults for zero Config fields.
const (
	DefaultReplanEvery    = 2 * time.Second
	DefaultMinImprovement = 0.05
	DefaultHistory        = 64
)

// The controller's fixed outage price and migration bound.
const (
	// DefaultOutageFactor is the multiplier assigned to a device whose
	// circuit breaker is open. It is large but finite: the allocation
	// problem requires finite positive costs, and a finite penalty still
	// lets TA2 use a dead-but-cheap device if literally nothing else can
	// serve.
	DefaultOutageFactor = 256.0
	// DefaultMigrateTimeout bounds the execution of one adopted plan end to
	// end.
	DefaultMigrateTimeout = 30 * time.Second
)

// Config tunes the adaptive control plane. The zero value of every field
// selects the package default. The outage price and the migration bound are
// not settings but fixed package constants.
type Config struct {
	// ReplanEvery is the control period: how often the devices are priced
	// and TA2 re-runs on the learned costs.
	ReplanEvery time.Duration
	// MinImprovement is the hysteresis margin: a candidate plan is adopted
	// only if its cost is at least this fraction below the incumbent's cost
	// at the same learned prices.
	MinImprovement float64
	// Cooldown is the minimum interval between adoptions. Zero selects
	// 3×ReplanEvery. An unhealthy incumbent device bypasses the cooldown
	// (but never the improvement margin).
	Cooldown time.Duration
	// History is how many decisions and migration events the controller
	// retains for /debug/adapt.
	History int
	// BaseCosts maps device addresses to their provisioning-time unit costs
	// c_j; the learned cost is base×factor. Missing addresses default to 1,
	// so a nil map means "learn relative costs from scratch".
	BaseCosts map[string]float64
	// Metrics receives scec_adapt_* telemetry; nil means obs.Default().
	Metrics *obs.Registry
	// Tracer, when non-nil, records one adapt.replan span per control cycle
	// and one adapt.migrate span per executed migration.
	Tracer *trace.Tracer
	// Journal receives the controller's flight-recorder events (replan
	// adopt/hold, reshape outcomes); nil means flight.Default().
	Journal *flight.Journal
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.ReplanEvery <= 0 {
		c.ReplanEvery = DefaultReplanEvery
	}
	if c.MinImprovement <= 0 {
		c.MinImprovement = DefaultMinImprovement
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 3 * c.ReplanEvery
	}
	if c.History <= 0 {
		c.History = DefaultHistory
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.Journal == nil {
		c.Journal = flight.Default()
	}
	return c
}
