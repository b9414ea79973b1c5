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

// ExecutorBackend names the execution substrate a deployment binds its
// encoding to, as data: the zero value is the in-process kernels, SimExecutor
// and FleetExecutor carry their configuration. Pass one to Deploy with
// WithExecutor; the facade's single bind step turns it into a running
// Executor, so every backend composes with every option the same way.
type ExecutorBackend[E comparable] struct {
	sim   *SimExecutorConfig   // non-nil: the virtual-clock simulator
	fleet *FleetExecutorConfig // non-nil: a replicated device fleet
}

// SimProfile models one simulated edge device's performance (compute rate,
// link rates, latency) and its faults over the virtual clock (slowdowns,
// per-gather failure probabilities, outages).
type SimProfile = sim.DeviceProfile

// DefaultSimProfile is a nominal simulated edge device.
func DefaultSimProfile() SimProfile { return sim.DefaultProfile() }

// SimExecutorConfig configures a simulator-backed executor: the replica
// group of device profiles hosting each coded block, the seed of the failure
// draws and retry jitter, and the registry receiving virtual-clock telemetry.
type SimExecutorConfig = engine.SimConfig

// FleetExecutorConfig configures a fleet-backed executor: the fleet session
// policy plus an optional Provision hook that supplies replica addresses
// once the deployment's block count is known.
type FleetExecutorConfig struct {
	// Session is the fleet runtime configuration. Its Replicas (and
	// optionally Standbys) must be set unless Provision is non-nil.
	Session FleetConfig
	// Provision, when non-nil, is called at bind time with the encoding's
	// block count and must return the replica address sets (and optional
	// standbys) to provision. It lets one backend value serve deployments
	// whose device counts aren't known up front; under WithChunking it is
	// called once per chunk, since every chunk runs its own fleet session.
	Provision func(blocks int) (replicas [][]string, standbys []string, err error)
}

// LocalExecutor returns the default backend: the in-process
// field-specialized kernels. Deploy uses it when no WithExecutor option is
// given.
func LocalExecutor[E comparable]() ExecutorBackend[E] { return ExecutorBackend[E]{} }

// SimExecutor returns a backend that serves queries from a simulated fleet:
// the fleet's own gather races devices modelled by cfg's profiles on a
// virtual clock, and they answer with the local backend's kernels. Retrieve
// each gather's report via the deployment's Executor() — it is a
// *engine.SimExecutor.
func SimExecutor[E comparable](cfg SimExecutorConfig) ExecutorBackend[E] {
	return ExecutorBackend[E]{sim: &cfg}
}

// FleetExecutor returns a backend that serves queries from the replicated,
// hedged, self-repairing device fleet described by cfg. Deploy binds it
// through the same path as Serve, so the handle exposes the same fleet
// accessors and accepts WithAdaptive.
func FleetExecutor[E comparable](cfg FleetExecutorConfig) ExecutorBackend[E] {
	return ExecutorBackend[E]{fleet: &cfg}
}

// deployConfig collects the facade options shared by Deploy,
// DeployQuantized and Serve.
type deployConfig[E comparable] struct {
	backend    *ExecutorBackend[E] // nil until WithExecutor (Deploy defaults to local)
	opts       engine.Options
	adaptive   *adapt.Config // non-nil when WithAdaptive was given (fleet backends only)
	collusionT int           // > 0 when WithCollusion selected the Cauchy tier
	chunkCols  *int          // non-nil when WithChunking was given
}

// DeployOption customizes how a deployment executes queries.
type DeployOption[E comparable] func(*deployConfig[E])

// WithExecutor selects the execution backend for a deployment's queries.
// The default is LocalExecutor.
func WithExecutor[E comparable](b ExecutorBackend[E]) DeployOption[E] {
	return func(c *deployConfig[E]) { c.backend = &b }
}

// WithChunking splits the deployment column-wise into chunks at most n
// columns wide: A = [A_1 | … | A_c] is planned and encoded once, each
// column slice of the coded blocks is bound to its own instance of the
// chosen backend (a FleetExecutor provisions one fleet per chunk through its
// Provision hook), and a query fans x's slices out and sums the raw coded
// results before the single decode — exact, because every code is linear.
// Use it for matrices so wide that full-width coded rows exceed per-device
// storage: each device then holds V(B_j)×n values instead of V(B_j)×l.
//
// Chunking does not loosen DeployQuantized's fixed-point overflow bound: the
// partial sums are added in F_p before decode, so the bound still scales
// with the full dot-product length l. A per-chunk dequantize that would is
// future work.
func WithChunking[E comparable](n int) DeployOption[E] {
	return func(c *deployConfig[E]) { c.chunkCols = &n }
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
// WithAdaptive: the control period, the outage penalty, the hysteresis
// margin and cooldown, and the migration timeout. Devices are priced from
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

// WithAdaptive enables the closed-loop adaptive control plane wherever a
// fleet is bound — Serve, or Deploy over a FleetExecutor: a background
// controller learns per-device costs from the fleet's own query traffic,
// re-plans with TA2, and rehosts or reshapes the deployment live — without
// failing a single query. The in-process backends have nothing to adapt and
// reject it, and so does a chunked deployment (see newDeployConfig) and one
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
	const fixed = "Serve re-binds an existing deployment, whose plan, code and encoding are already fixed"
	switch {
	case rebind && c.backend != nil:
		return c, notApplicable("WithExecutor", "Serve executes over the fleet it is given")
	case rebind && c.collusionT > 0:
		return c, notApplicable("WithCollusion", fixed)
	case rebind && c.chunkCols != nil:
		return c, notApplicable("WithChunking", fixed+"; deploy with FleetExecutor to chunk over fleets")
	case c.adaptive != nil && !rebind && (c.backend == nil || c.backend.fleet == nil):
		return c, notApplicable("WithAdaptive", "the control plane needs a live fleet to migrate; deploy over a FleetExecutor or use Serve")
	case c.adaptive != nil && c.chunkCols != nil:
		// Summing raw coded results needs every chunk to share one code; a
		// per-chunk reshape would change r under the sum.
		return c, notApplicable("WithAdaptive with WithChunking", "chunks must share one code, and a reshape would change one chunk's")
	}
	return c, nil
}
