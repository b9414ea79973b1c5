package scec

import (
	"context"
	"errors"
	"math/rand/v2"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/scec/scec/internal/adapt"
	"github.com/scec/scec/internal/engine"
	"github.com/scec/scec/internal/fleet"
)

// FleetConfig tunes a fault-tolerant serving session: the replica topology
// (which device addresses host copies of each coded block, plus warm
// standbys), the hedging/retry/deadline policy, and the health-probe and
// circuit-breaker parameters. See internal/fleet.Config for field docs.
type FleetConfig = fleet.Config

// Session is the raw fault-tolerant fleet runtime for one deployment: it
// races each block's replicas per query, hedges stragglers, retries with
// backoff, quarantines dead devices behind circuit breakers, and re-pushes
// blocks to standbys in the background when a replica set degrades. Serve
// wraps one in the engine's query layer; use Served.Session for direct
// access.
type Session[E comparable] = fleet.Session[E]

// ErrBlockUnavailable reports that a query exhausted every replica, hedge,
// and retry for some coded block; test with errors.Is. The concrete error is
// a *BlockUnavailableError carrying the block index.
var ErrBlockUnavailable = fleet.ErrBlockUnavailable

// BlockUnavailableError is the typed per-block failure a Session query
// returns when no replica of one coded block could serve it in time.
type BlockUnavailableError = fleet.BlockUnavailableError

// Served is a live serving handle: the engine's query layer (validation,
// dispatch counters, optional request coalescing, decode) over a
// fault-tolerant fleet session. With WithAdaptive the handle additionally
// runs the closed-loop control plane, and the session underneath may be
// replaced live by a reshape — the accessors always reflect the current one.
type Served[E comparable] struct {
	q *engine.Query[E]
	s *fleet.Session[E]

	// Adaptive-only state (nil without WithAdaptive).
	adapter *adapt.FleetAdapter[E]
	ctrl    *adapt.Controller
}

// session resolves the fleet session currently serving queries: the adapter's
// view when the control plane may have reshaped it, the provisioning-time
// session otherwise.
func (v *Served[E]) session() *fleet.Session[E] {
	if v.adapter != nil {
		return v.adapter.Session()
	}
	return v.s
}

// Serve provisions dep's coded blocks onto the replicated device fleet
// described by cfg and returns a Served handle answering MulVec/MulMat
// queries with per-query fault tolerance. Options tune the engine layer
// (e.g. WithCoalescing); WithExecutor is rejected, since Serve's backend is
// by definition the given fleet.
//
// Replicating a block does not weaken the paper's Definition 2 security:
// every replica of block j stores exactly B_j·T, the per-device view already
// proven to leak no linear combination of A's rows (Theorem 3). Close the
// Served handle when done; the device servers themselves belong to the
// caller.
func Serve[E comparable](dep *Deployment[E], cfg FleetConfig, opts ...DeployOption[E]) (*Served[E], error) {
	c := deployConfig[E]{}
	for _, o := range opts {
		o(&c)
	}
	if c.backend != nil {
		return nil, errors.New("scec: Serve executes over the given fleet; WithExecutor is not applicable")
	}
	// One WithTracing (or one FleetConfig.Tracer) is enough: engine and
	// fleet layers share whichever tracer was provided. Likewise the
	// registry, so one handle's series never split across two.
	if c.opts.Tracer == nil {
		c.opts.Tracer = cfg.Tracer
	}
	if cfg.Tracer == nil {
		cfg.Tracer = c.opts.Tracer
	}
	if c.opts.Metrics == nil {
		c.opts.Metrics = cfg.Metrics
	}
	if cfg.Metrics == nil {
		cfg.Metrics = c.opts.Metrics
	}
	if c.adaptive == nil {
		s, err := fleet.Serve(dep.F, dep.Encoding, cfg)
		if err != nil {
			return nil, err
		}
		q, err := engine.New(dep.F, dep.Encoding, engine.WrapSession(s, true), c.opts)
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		return &Served[E]{q: q, s: s}, nil
	}
	return serveAdaptive(dep, cfg, c)
}

// serveAdaptive builds the adaptive serving stack: the fleet session feeds
// winning-attempt latencies into the controller through OnWin, the engine
// runs over a swappable executor so a reshape can replace the whole session
// behind a drain, and the controller closes the loop on a background ticker.
func serveAdaptive[E comparable](dep *Deployment[E], cfg FleetConfig, c deployConfig[E]) (*Served[E], error) {
	aCfg := *c.adaptive
	if aCfg.Tracer == nil {
		aCfg.Tracer = cfg.Tracer
	}
	if aCfg.Metrics == nil {
		aCfg.Metrics = cfg.Metrics
	}

	// The controller does not exist yet when the session starts serving, so
	// OnWin routes through an atomic pointer; a caller-provided OnWin still
	// sees every win.
	var ctrl atomic.Pointer[adapt.Controller]
	userOnWin := cfg.OnWin
	cfg.OnWin = func(device string, block int, latency time.Duration) {
		if cc := ctrl.Load(); cc != nil {
			cc.ObserveWin(device, block, latency)
		}
		if userOnWin != nil {
			userOnWin(device, block, latency)
		}
	}

	s, err := fleet.Serve(dep.F, dep.Encoding, cfg)
	if err != nil {
		return nil, err
	}
	sw, err := engine.NewSwappable[E](engine.WrapSession(s, true), dep.Code)
	if err != nil {
		_ = s.Close()
		return nil, err
	}
	q, err := engine.New(dep.F, dep.Encoding, sw, c.opts)
	if err != nil {
		_ = sw.Close()
		return nil, err
	}
	adapter, err := adapt.NewFleetAdapter(dep.F, dep.Encoding, s, sw, cfg, rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64())))
	if err != nil {
		_ = q.Close()
		return nil, err
	}
	controller, err := adapt.New(aCfg, adapter)
	if err != nil {
		_ = q.Close()
		return nil, err
	}
	ctrl.Store(controller)
	controller.Start()
	return &Served[E]{q: q, s: s, adapter: adapter, ctrl: controller}, nil
}

// MulVec computes A·x through the fleet (coalescing concurrent callers into
// batch rounds when enabled).
func (v *Served[E]) MulVec(x []E) ([]E, error) {
	return v.MulVecContext(context.Background(), x)
}

// MulVecContext is MulVec bounded by ctx: cancelling it cancels the
// in-flight replica races. A span carried in ctx continues into the fleet's
// trace.
func (v *Served[E]) MulVecContext(ctx context.Context, x []E) ([]E, error) {
	y, err := v.q.MulVecContext(ctx, x)
	if err != nil {
		return nil, wrapEngineErr(err)
	}
	return y, nil
}

// MulMat computes A·X for an l×n input matrix through the fleet.
func (v *Served[E]) MulMat(x *Matrix[E]) (*Matrix[E], error) {
	return v.MulMatContext(context.Background(), x)
}

// MulMatContext is MulMat bounded by ctx; see MulVecContext.
func (v *Served[E]) MulMatContext(ctx context.Context, x *Matrix[E]) (*Matrix[E], error) {
	y, err := v.q.MulMatContext(ctx, x)
	if err != nil {
		return nil, wrapEngineErr(err)
	}
	return y, nil
}

// LoadTarget adapts the handle into a load-generator target: each call is
// one MulVec of x under the generator's per-request context. The input is
// captured by reference; do not mutate it while a run is in flight.
func (v *Served[E]) LoadTarget(x []E) func(ctx context.Context) error {
	return func(ctx context.Context) error {
		_, err := v.MulVecContext(ctx, x)
		return err
	}
}

// Devices returns the number of logical coded blocks served. Under
// WithAdaptive this tracks the current plan: a reshape to a different r
// changes it.
func (v *Served[E]) Devices() int { return v.session().Devices() }

// Standbys returns how many warm standby devices remain unused.
func (v *Served[E]) Standbys() int { return v.session().Standbys() }

// ReplicaCount returns how many replicas currently serve block j.
func (v *Served[E]) ReplicaCount(j int) int { return v.session().ReplicaCount(j) }

// Session exposes the underlying fleet runtime. Under WithAdaptive it is the
// session currently serving queries — a reshape replaces it, so do not cache
// the pointer across control cycles.
func (v *Served[E]) Session() *Session[E] { return v.session() }

// Adaptive returns the running control loop, or nil when the handle was not
// served WithAdaptive.
func (v *Served[E]) Adaptive() *AdaptiveController { return v.ctrl }

// EngineDebugHandler serves the engine's dispatch/coalescing snapshot
// (mount as /debug/engine); FleetDebugHandler serves the fleet's breaker,
// replica-health, standby, and straggler snapshot (mount as /debug/fleet).
func (v *Served[E]) EngineDebugHandler() http.Handler { return v.q.DebugHandler() }

// FleetDebugHandler serves the fleet session's live runtime snapshot. Under
// WithAdaptive the handler resolves the current session per request, so it
// stays correct across reshapes.
func (v *Served[E]) FleetDebugHandler() http.Handler {
	if v.adapter == nil {
		return v.s.DebugHandler()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v.session().DebugHandler().ServeHTTP(w, r)
	})
}

// AdaptDebugHandler serves the adaptive control plane's live snapshot
// (learned factors, plan decisions, migration events); mount as /debug/adapt.
// Without WithAdaptive it reports 404.
func (v *Served[E]) AdaptDebugHandler() http.Handler {
	if v.ctrl == nil {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "adaptive control plane not enabled; serve with WithAdaptive", http.StatusNotFound)
		})
	}
	return v.ctrl.DebugHandler()
}

// Close stops the adaptive control loop (in-flight migrations finish first),
// flushes the query engine, and shuts the fleet session down. Safe to call
// more than once.
func (v *Served[E]) Close() error {
	if v.ctrl != nil {
		v.ctrl.Stop()
	}
	return v.q.Close()
}
