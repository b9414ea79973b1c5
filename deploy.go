package scec

import (
	"context"
	crand "crypto/rand"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/scec/scec/internal/adapt"
	"github.com/scec/scec/internal/alloc"
	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/cost"
	"github.com/scec/scec/internal/engine"
	"github.com/scec/scec/internal/fleet"
	"github.com/scec/scec/internal/obs"
)

// CostComponents holds one edge device's unit prices: storage per element,
// one addition, one multiplication, and transmitting one value to the user.
type CostComponents = cost.Components

// UnitCost folds a device's component prices into the per-row unit cost c_j
// used by Allocate, for coded rows of length l (Eq. (1) of the paper):
// c_j = (l+1)·storage + l·mul + (l−1)·add + comm.
func UnitCost(l int, c CostComponents) float64 { return c.Unit(l) }

// UnitCosts maps a fleet of component prices to unit costs.
func UnitCosts(l int, comps []CostComponents) ([]float64, error) { return cost.Units(l, comps) }

// AmortizedUnitCosts maps component prices to the unit costs of a session
// serving `queries` input vectors from one provisioned deployment: storage
// is paid once, compute and communication per query. Feed the result to
// Allocate to plan long-lived deployments (the device ranking can differ
// from the one-shot case when storage and compute prices diverge).
func AmortizedUnitCosts(l, queries int, comps []CostComponents) ([]float64, error) {
	return cost.AmortizedUnits(l, queries, comps)
}

// Deployment is a fully provisioned secure multiplication service for one
// confidential matrix: the optimal plan, the coding design it induces, every
// device's coded block, and the query engine bound to an execution backend.
// Deploy and Serve both return it (Served is an alias); its fleet accessors
// (serve.go) report nil/zero when no single fleet session is bound.
type Deployment[E comparable] struct {
	// F is the arithmetic field.
	F Field[E]
	// Plan is the cost-optimal task allocation (TA1, or TACollusion under
	// WithCollusion).
	Plan Plan
	// Code is the deployed coding design — the Eq. (8) scheme by default,
	// or the Cauchy t-collusion design under WithCollusion. Every execution
	// backend decodes through it.
	Code Code[E]
	// Scheme is the Eq. (8) coding design for (m, Plan.R) when the default
	// structured tier is deployed; nil under WithCollusion. Callers
	// needing scheme-specific introspection should prefer Code.
	Scheme *Scheme
	// Encoding holds the coded blocks, in code device order; block j
	// belongs to the device with index Plan.Assignments[j].Device in the
	// caller's cost slice.
	Encoding *Encoding[E]

	q      *engine.Query[E]
	chunks int

	// s is the provisioning-time session when one serves the whole encoding
	// (nil off-fleet and under WithChunking); adapter and ctrl are
	// WithAdaptive's.
	s       *fleet.Session[E]
	adapter *adapt.FleetAdapter[E]
	ctrl    *adapt.Controller
}

// Deploy provisions secure coded multiplication for the confidential matrix
// a over a fleet with the given per-row unit costs: it solves the MCSCEC
// allocation, builds the coding scheme, and encodes a with fresh random
// rows from rng. Costs are per device in the caller's order; the plan's
// assignments refer back to those indexes.
//
// A nil rng draws the masking rows from ChaCha8 keyed with 32 bytes of
// crypto/rand — what a deployment whose secrecy matters should use; pass a
// seeded generator only to reproduce a run.
//
// Queries execute over the in-process kernels by default; pass WithExecutor
// to run them over the simulator or a real fleet instead, WithChunking to
// split a wide matrix column-wise over several backend instances,
// WithCoalescing to merge concurrent MulVec callers into batch rounds, and
// WithCollusion(t) to deploy the t-collusion-secure coding tier instead of
// the single-attacker Eq. (8) scheme. Only the exact fields leave the host:
// a RealField deployment runs on the in-process kernels, and DeployQuantized
// serves float workloads anywhere else.
func Deploy[E comparable](f Field[E], a *Matrix[E], unitCosts []float64, rng *rand.Rand, opts ...DeployOption[E]) (*Deployment[E], error) {
	cfg, err := newDeployConfig(opts, false)
	if err != nil {
		return nil, err
	}
	plan, code, err := planAndCode(f, a, unitCosts, cfg)
	if err != nil {
		return nil, err
	}
	if rng == nil {
		rng = secureRand()
	}
	encode := obs.StartStage(nil, obs.StageEncode)
	enc, err := code.Encode(a, rng)
	encode.End()
	if err != nil {
		return nil, fmt.Errorf("scec: encode: %w", err)
	}
	return bind(&Deployment[E]{F: f, Plan: plan, Code: code, Scheme: enc.Scheme, Encoding: enc}, cfg)
}

// bind turns d's encoding into a live query engine. It is the facade's one
// seam between an encoding and the substrate that serves it: Deploy calls it
// on the encoding it just produced, Serve on an existing deployment's, so
// every executor, fleet session and control loop is created here.
func bind[E comparable](d *Deployment[E], c deployConfig[E]) (*Deployment[E], error) {
	// Decided on the bound code, not the option list: Serve of a collusion
	// deployment carries no WithCollusion.
	if c.adaptive != nil && d.Code.T() > 1 {
		return nil, notApplicable("WithAdaptive", fmt.Sprintf("the control plane re-plans with the t = 1 allocators, and this code is secure against t = %d colluders", d.Code.T()))
	}
	var backend ExecutorBackend[E]
	if c.backend != nil {
		backend = *c.backend
	}
	// Definition 2's one-time pad needs uniform masks, and float64 has no
	// uniform distribution (RealField draws Gaussian ones): float coded
	// blocks stay on the host, where nothing is disclosed.
	if _, float := any(*new(E)).(float64); float && backend != (ExecutorBackend[E]{}) {
		name := "SimExecutor"
		if backend.fleet != nil {
			name = "FleetExecutor"
		}
		return nil, notApplicable(name, "a RealField deployment runs on the in-process kernels only; serve float workloads with DeployQuantized, which codes exactly over F_p")
	}
	var fc FleetExecutorConfig
	if backend.fleet != nil {
		// A merged round saves every caller's round trip but one, so
		// fleet-served queries group-commit by default. The in-process
		// backends have no round trip to save, and a batch kernel costs
		// more per query than parallel MulVecs: they coalesce only under
		// WithCoalescing.
		c.opts.GroupCommit = true
		fc = *backend.fleet
		// One WithTracing (or one FleetConfig.Tracer) is enough: engine and
		// fleet layers share whichever tracer was provided. Likewise the
		// registry, so one handle's series never split across two.
		shareDefault(&c.opts.Tracer, &fc.Session.Tracer)
		shareDefault(&c.opts.Metrics, &fc.Session.Metrics)
	}
	bindOne := func(enc *Encoding[E]) (engine.Executor[E], error) {
		switch {
		case backend.fleet != nil:
			return d.bindFleet(enc, fc, c.adaptive)
		case backend.sim != nil:
			return engine.NewSim(d.F, enc, *backend.sim)
		}
		return engine.NewLocal(d.F, enc, c.opts.Metrics), nil
	}

	width := math.MaxInt // one chunk
	if c.chunkCols != nil {
		width = *c.chunkCols
	}
	exec, chunks, err := engine.NewChunked(d.F, d.Encoding, width, bindOne)
	if err != nil {
		return nil, fmt.Errorf("scec: bind executor: %w", err)
	}
	d.chunks = chunks
	d.q, err = engine.New(d.F, d.Encoding, exec, c.opts)
	if err != nil {
		_ = exec.Close()
		return nil, fmt.Errorf("scec: bind executor: %w", err)
	}
	if d.ctrl != nil {
		d.ctrl.Start()
	}
	return d, nil
}

// secureRand returns an unpredictable generator for masking rows: ChaCha8
// under a key from the operating system. The ITS argument needs R uniformly
// random, and a reshape's "new epoch" needs it independent of every earlier
// R; a PCG seeded from 64 guessable bits gives neither.
func secureRand() *rand.Rand {
	var key [32]byte
	crand.Read(key[:]) // cannot fail: since Go 1.24 it aborts the program instead
	return rand.New(rand.NewChaCha8(key))
}

// shareDefault fills whichever of *a and *b is unset from the other.
func shareDefault[T comparable](a, b *T) {
	var unset T
	if *a == unset {
		*a = *b
	}
	if *b == unset {
		*b = *a
	}
}

// bindFleet provisions one fleet session for enc and returns the executor
// that owns it. Under WithAdaptive the session feeds winning-attempt
// latencies into the controller through OnWin, and the executor is a
// Swappable so a reshape can replace the whole session behind a drain; bind
// starts the control loop once the engine exists.
func (d *Deployment[E]) bindFleet(enc *Encoding[E], fc FleetExecutorConfig, aCfg *adapt.Config) (engine.Executor[E], error) {
	cfg := fc.Session
	if fc.Provision != nil {
		replicas, standbys, err := fc.Provision(len(enc.Blocks))
		if err != nil {
			return nil, err
		}
		cfg.Replicas, cfg.Standbys = replicas, standbys
	}
	// The controller does not exist yet when the session starts serving, so
	// OnWin routes through an atomic pointer; a caller-provided OnWin still
	// sees every win.
	var ctrl atomic.Pointer[adapt.Controller]
	if aCfg != nil {
		userOnWin := cfg.OnWin
		cfg.OnWin = func(device string, block int, latency time.Duration) {
			if cc := ctrl.Load(); cc != nil {
				cc.ObserveWin(device, block, latency)
			}
			if userOnWin != nil {
				userOnWin(device, block, latency)
			}
		}
	}
	s, err := fleet.Serve(d.F, enc, cfg)
	if err != nil {
		return nil, err
	}
	exec := engine.WrapSession(s, true)
	if enc == d.Encoding { // not a chunk's column slice: s speaks for the deployment
		d.s = s
	}
	if aCfg == nil {
		return exec, nil
	}

	sw, err := engine.NewSwappable[E](exec, d.Code)
	if err != nil {
		_ = exec.Close()
		return nil, err
	}
	ac := *aCfg
	if ac.Tracer == nil {
		ac.Tracer = cfg.Tracer
	}
	if ac.Metrics == nil {
		ac.Metrics = cfg.Metrics
	}
	var controller *adapt.Controller
	adapter, err := adapt.NewFleetAdapter(d.F, enc, s, sw, cfg, secureRand())
	if err == nil {
		controller, err = adapt.New(ac, adapter)
	}
	if err != nil {
		_ = sw.Close()
		return nil, err
	}
	ctrl.Store(controller)
	d.adapter, d.ctrl = adapter, controller
	return sw, nil
}

// planAndCode solves the allocation and builds the coding design for the
// selected security tier: the Eq. (8) scheme under TA1 by default, or the
// Cauchy design under the coalition-aware TACollusion sweep for
// WithCollusion(t).
func planAndCode[E comparable](f Field[E], a *Matrix[E], unitCosts []float64, cfg deployConfig[E]) (Plan, Code[E], error) {
	allocate := obs.StartStage(nil, obs.StageAllocate)
	defer allocate.End()
	if t := cfg.collusionT; t > 0 {
		plan, err := alloc.TACollusion(Instance{M: a.Rows(), Costs: unitCosts}, t)
		if err != nil {
			return Plan{}, nil, fmt.Errorf("scec: allocate: %w", err)
		}
		rows := make([]int, plan.I)
		for j, as := range plan.Assignments {
			rows[j] = as.Rows
		}
		code, err := coding.NewCollusion(f, a.Rows(), plan.R, t, rows)
		if err != nil {
			return Plan{}, nil, fmt.Errorf("scec: coding design: %w", err)
		}
		return plan, code, nil
	}
	plan, err := alloc.TA1(Instance{M: a.Rows(), Costs: unitCosts})
	if err != nil {
		return Plan{}, nil, fmt.Errorf("scec: allocate: %w", err)
	}
	code, err := coding.NewStructured(f, a.Rows(), plan.R)
	if err != nil {
		return Plan{}, nil, fmt.Errorf("scec: coding design: %w", err)
	}
	if code.Devices() != plan.I {
		// Cannot happen: both derive i = ⌈(m+r)/r⌉ from the same (m, r).
		return Plan{}, nil, fmt.Errorf("scec: plan selects %d devices but scheme needs %d", plan.I, code.Devices())
	}
	return plan, code, nil
}

// MulVec computes A·x through the deployment's execution engine — the
// in-process kernels by default, or whatever backend WithExecutor selected
// — and decodes. The engine validates the input, counts the dispatch, and
// (when coalescing is on) may serve this call as one column of a merged
// batch round.
func (d *Deployment[E]) MulVec(x []E) ([]E, error) {
	return d.MulVecContext(context.Background(), x)
}

// MulVecContext is MulVec bounded by ctx: MulVecInto on a fresh output.
func (d *Deployment[E]) MulVecContext(ctx context.Context, x []E) ([]E, error) {
	y := make([]E, d.Code.M())
	if err := d.MulVecInto(ctx, y, x); err != nil {
		return nil, err
	}
	return y, nil
}

// MulVecInto computes A·x into dst, which must hold m entries, bounded by
// ctx (the fleet backend cancels in-flight replica races when it ends). It
// allocates nothing of its own on the served path: the devices' results
// land in recycled staging and decode straight into dst. When concurrent
// callers share a merged round, this caller's column is copied into dst on
// its own goroutine, so nothing writes dst once MulVecInto has returned,
// and a call that fails or is cancelled leaves dst as it was. With
// WithTracing, each call opens — or, when ctx already
// carries a span, continues — one end-to-end trace.
func (d *Deployment[E]) MulVecInto(ctx context.Context, dst, x []E) error {
	if err := d.q.MulVecInto(ctx, dst, x); err != nil {
		return wrapEngineErr(err)
	}
	return nil
}

// MulMat computes A·X for an l×n input matrix X (the paper's batch
// generalization: n input vectors served by one round). Decoding costs m·n
// subtractions.
func (d *Deployment[E]) MulMat(x *Matrix[E]) (*Matrix[E], error) {
	return d.MulMatContext(context.Background(), x)
}

// MulMatContext is MulMat bounded by ctx; see MulVecContext.
func (d *Deployment[E]) MulMatContext(ctx context.Context, x *Matrix[E]) (*Matrix[E], error) {
	y, err := d.q.MulMatContext(ctx, x)
	if err != nil {
		return nil, wrapEngineErr(err)
	}
	return y, nil
}

// LoadTarget adapts the deployment into a load-generator target: each call
// is one MulVec of x under the generator's per-request context. The input is
// captured by reference; do not mutate it while a run is in flight.
func (d *Deployment[E]) LoadTarget(x []E) func(ctx context.Context) error {
	return func(ctx context.Context) error {
		_, err := d.MulVecContext(ctx, x)
		return err
	}
}

// Backend names the execution backend serving this deployment's queries
// ("local", "sim", or "fleet").
func (d *Deployment[E]) Backend() string { return d.q.Backend() }

// Executor exposes the underlying executor for backend-specific
// introspection (e.g. *engine.SimExecutor's LastReport).
func (d *Deployment[E]) Executor() Executor[E] { return d.q.Executor() }

// EngineDebugHandler serves the engine's live dispatch and coalescing
// snapshot as JSON — mount it as /debug/engine on the obs telemetry server.
func (d *Deployment[E]) EngineDebugHandler() http.Handler { return d.q.DebugHandler() }

// Close stops the adaptive control loop when one runs (in-flight migrations
// finish first), flushes the query engine, and releases the backend (a fleet
// backend closes its sessions). Safe to call more than once.
func (d *Deployment[E]) Close() error {
	if d.ctrl != nil {
		d.ctrl.Stop()
	}
	return d.q.Close()
}

// wrapEngineErr rebrands engine-layer validation messages under the public
// package's prefix while leaving backend errors (which already carry their
// own context) untouched for errors.Is/As chains.
func wrapEngineErr(err error) error {
	return fmt.Errorf("scec: %w", err)
}

// Cost returns the plan's variable cost Σ_j V(B_j)·c_j.
func (d *Deployment[E]) Cost() float64 { return d.Plan.Cost }

// Devices returns the number of logical coded blocks served. Under
// WithAdaptive this tracks the current plan: a reshape to a different r
// changes it. Under WithChunking every chunk's backend instance hosts this
// many blocks (a chunked fleet runs Chunks()·Devices() device slots).
func (d *Deployment[E]) Devices() int {
	if s := d.Session(); s != nil {
		return s.Devices()
	}
	return d.Code.Devices()
}

// Chunks returns the number of column chunks the deployment is split into:
// 1 unless WithChunking chose a width narrower than the matrix.
func (d *Deployment[E]) Chunks() int { return d.chunks }

// Audit runs the attack harness against every device and returns the
// per-device leak dimensions (all zero for this construction).
func (d *Deployment[E]) Audit() []int {
	leaks := make([]int, d.Code.Devices())
	for j := range leaks {
		leaks[j] = AuditCode(d.F, d.Code, j)
	}
	return leaks
}
