package scec

import (
	"errors"
	"fmt"
	"time"

	"github.com/scec/scec/internal/adapt"
	"github.com/scec/scec/internal/engine"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/sim"
)

// Executor is the pluggable execution substrate behind every deployment
// facade: it evaluates the coded compute round (B·T·x, and B·T·X for
// batches) over some backend — in-process kernels, the virtual-clock
// simulator, or the fault-tolerant TCP fleet. See internal/engine.
type Executor[E comparable] = engine.Executor[E]

// SimProfile models one simulated edge device's performance (compute rate,
// link rates, latency) and its faults over the virtual clock (slowdowns,
// per-gather failure probabilities, outages).
type SimProfile = sim.DeviceProfile

// SimExecutorConfig configures a simulator-backed executor: the replica
// group of device profiles hosting each coded block, the seed of the failure
// draws and retry jitter, and the registry receiving virtual-clock telemetry.
type SimExecutorConfig = engine.SimConfig

// deployConfig collects the facade options shared by Deploy,
// DeployQuantized and Serve.
type deployConfig[E comparable] struct {
	sim        *SimExecutorConfig // non-nil when WithSimulator was given
	fleet      *FleetConfig       // non-nil when Serve binds a fleet
	opts       engine.Options
	adaptive   *adapt.Config // non-nil when WithAdaptive was given (Serve only)
	collusionT int           // > 0 when WithCollusion selected the Cauchy tier
}

// DeployOption customizes how a deployment executes queries.
type DeployOption[E comparable] func(*deployConfig[E])

// WithSimulator serves a deployment's queries from a simulated fleet
// instead of the in-process kernels: the fleet's own gather races devices
// modelled by cfg's profiles on a virtual clock, and they answer with the
// local kernels. Each gather's report is on the deployment's Executor(), a
// *engine.SimExecutor. A real fleet is bound with Serve.
func WithSimulator[E comparable](cfg SimExecutorConfig) DeployOption[E] {
	return func(c *deployConfig[E]) { c.sim = &cfg }
}

// WithCoalescing sets request coalescing on the deployment's query engine:
// concurrent MulVec callers merge into one batch round (up to maxBatch of
// them; 0 means the engine default) and each receives its own decoded
// column. A positive window merges the callers that arrive within it after
// the first. A zero window is group commit: a caller that finds no round in
// flight runs alone, and the callers that arrive while one is in flight
// share the next. Fleet-served deployments group-commit without this
// option, so there it picks a window or the bound; the in-process backends,
// which have no round trip to amortise, coalesce only with it. The type
// parameter matches the deployment's element type, e.g.
// scec.WithCoalescing[uint64](2*time.Millisecond, 8).
func WithCoalescing[E comparable](window time.Duration, maxBatch int) DeployOption[E] {
	return func(c *deployConfig[E]) {
		c.opts.CoalesceWindow = window
		c.opts.CoalesceMaxBatch = maxBatch
		c.opts.GroupCommit = true
	}
}

// WithEngineMetrics routes the deployment engine's dispatch counters and
// coalescing histogram (and the local backend's stage spans) to reg instead
// of the process-default registry.
func WithEngineMetrics[E comparable](reg *obs.Registry) DeployOption[E] {
	return func(c *deployConfig[E]) { c.opts.Metrics = reg }
}

// AdaptiveConfig tunes the closed-loop adaptive control plane enabled by
// WithAdaptive: the control period, the hysteresis margin and cooldown, the
// decision history and the base unit costs; the outage penalty and the
// migration timeout are fixed. Devices are priced from
// the fleet's straggler record, the same one the gather routes by, so there
// is no separate learning knob. The zero value selects sensible defaults for
// every field. See internal/adapt.Config.
type AdaptiveConfig = adapt.Config

// AdaptiveController is the running control loop behind an adaptive Served
// handle: it prices devices from the fleet's per-device attempt latencies
// and connection RTTs, periodically re-runs the paper's TA2 allocation on the
// learned costs, and migrates coded blocks live when a re-plan clears the
// hysteresis margin. See internal/adapt.Controller.
type AdaptiveController = adapt.Controller

// WithCollusion selects the t-collusion security tier for a deployment: the
// allocation is solved with the coalition-aware TACollusion sweep and the
// matrix is encoded under the Cauchy-masked design of NewCollusionScheme, so
// any coalition of up to t honest-but-curious devices learns nothing about
// A. t = 1 deploys the Cauchy design at the classic threat model (useful for
// cross-checking the tiers); the default Eq. (8) scheme remains the cheaper
// choice there, with its m-subtraction decode.
func WithCollusion[E comparable](t int) DeployOption[E] {
	return func(c *deployConfig[E]) { c.collusionT = t }
}

// WithAdaptive enables the closed-loop adaptive control plane on a fleet
// bound by Serve: a background controller learns per-device costs from the
// fleet's own query traffic, re-plans with TA2, and rehosts or reshapes the
// deployment live — without failing a single query. Deploy, whose backends
// have no fleet to migrate, rejects it, and so does Serve of a deployment
// whose code guards against t >= 2 colluders (see bind): the control plane
// re-plans with the t = 1 allocators.
func WithAdaptive[E comparable](cfg AdaptiveConfig) DeployOption[E] {
	return func(c *deployConfig[E]) { c.adaptive = &cfg }
}

// ErrOptionNotApplicable reports a DeployOption given where it cannot take
// effect; test with errors.Is. The message names the option.
var ErrOptionNotApplicable = errors.New("option not applicable")

func notApplicable(option, why string) error {
	return fmt.Errorf("scec: %s: %w: %s", option, ErrOptionNotApplicable, why)
}

// newDeployConfig applies opts and rejects the combinations the entry point
// cannot honour. rebind is Serve: the deployment's code and encoding already
// exist, so every option that would have shaped them is an error rather than
// a silent no-op.
func newDeployConfig[E comparable](opts []DeployOption[E], rebind bool) (deployConfig[E], error) {
	c := deployConfig[E]{}
	for _, o := range opts {
		o(&c)
	}
	// Definition 2's one-time pad needs uniform masks, and float64 has no
	// uniform distribution (RealField draws Gaussian ones), so no float
	// matrix is coded at all.
	_, float := any(*new(E)).(float64)
	switch {
	case float:
		return c, notApplicable("RealField", "a float64 matrix has no uniform masks; deploy float workloads with DeployQuantized, which codes exactly over F_p")
	case rebind && c.sim != nil:
		return c, notApplicable("WithSimulator", "Serve executes over the fleet it is given")
	case rebind && c.collusionT > 0:
		return c, notApplicable("WithCollusion", "Serve re-binds an existing deployment, whose plan, code and encoding are already fixed")
	case c.adaptive != nil && !rebind:
		return c, notApplicable("WithAdaptive", "the control plane needs a live fleet to migrate, and WithAdaptive applies to Serve only")
	}
	return c, nil
}
