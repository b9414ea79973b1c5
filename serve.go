package scec

import (
	"net/http"

	"github.com/scec/scec/internal/fleet"
)

// FleetConfig tunes a fault-tolerant serving session: the replica topology
// (which device addresses host copies of each coded block, plus warm
// standbys), the per-attempt timeout and hedge delay, and the health-probe
// and circuit-breaker parameters. The query deadline, retry rounds and
// backoff, and probe timeout are fixed package constants; a caller bounds
// one query with its context. See internal/fleet.Config for field docs.
type FleetConfig = fleet.Config

// Session is the raw fault-tolerant fleet runtime for one deployment: it
// races each block's replicas per query, hedges stragglers, retries with
// backoff, quarantines dead devices behind circuit breakers, and re-pushes
// blocks to standbys in the background when a replica set degrades. Every
// fleet bind wraps one in the engine's query layer; use Deployment.Session
// for direct access.
type Session[E comparable] = fleet.Session[E]

// ErrBlockUnavailable reports that a query exhausted every replica, hedge,
// and retry for some coded block; test with errors.Is. The concrete error is
// a *BlockUnavailableError carrying the block index.
var ErrBlockUnavailable = fleet.ErrBlockUnavailable

// BlockUnavailableError is the typed per-block failure a Session query
// returns when no replica of one coded block could serve it in time.
type BlockUnavailableError = fleet.BlockUnavailableError

// DeviceStats is one device's straggler record — attempt outcomes, hedge
// wins and the p50/p95/p99 of its last 64 attempt latencies (wins, and
// lower bounds for overtaken losses) — as returned by Session.Stragglers,
// traced or not.
type DeviceStats = fleet.DeviceStats

// Served is the handle Serve returns: the same type as Deployment, named
// for its bound backend, a fault-tolerant fleet session — Serve is the only
// bind that creates one. With WithAdaptive the session underneath may be
// replaced live by a reshape — the accessors below always reflect the
// current one.
type Served[E comparable] = Deployment[E]

// Serve re-binds dep's coded blocks onto the replicated device fleet
// described by cfg — Deploy's bind step run again over a fleet, the only
// way a deployment reaches one — and returns a handle answering
// MulVec/MulMat queries with per-query fault tolerance. cfg.Replicas holds
// one replica set per coded block (dep.Devices() of them). The handle
// shares dep's plan, code and encoding and owns its own engine and session.
// Options tune the engine layer (WithCoalescing, WithEngineMetrics,
// WithTracing) or add the control plane (WithAdaptive); those that would
// have shaped what dep already fixed (WithSimulator, WithCollusion) fail
// with ErrOptionNotApplicable, and so does a float64 deployment.
//
// Replicating a block does not weaken the paper's Definition 2 security:
// every replica of block j stores exactly B_j·T, the per-device view already
// proven to leak no linear combination of A's rows (Theorem 3). Close the
// Served handle when done; the device servers themselves belong to the
// caller.
func Serve[E comparable](dep *Deployment[E], cfg FleetConfig, opts ...DeployOption[E]) (*Served[E], error) {
	c, err := newDeployConfig(opts, true)
	if err != nil {
		return nil, err
	}
	c.fleet = &cfg
	return bind(&Deployment[E]{F: dep.F, Plan: dep.Plan, Code: dep.Code, Encoding: dep.Encoding}, c)
}

// Session exposes the underlying fleet runtime: nil off-fleet. Under
// WithAdaptive it is the session currently serving queries — a reshape
// replaces it, so do not cache the pointer across control cycles.
func (d *Deployment[E]) Session() *Session[E] {
	if d.adapter != nil {
		return d.adapter.Session()
	}
	return d.s
}

// Standbys returns how many warm standby devices remain unused (0 without a
// session).
func (d *Deployment[E]) Standbys() int {
	if s := d.Session(); s != nil {
		return s.Standbys()
	}
	return 0
}

// ReplicaCount returns how many replicas currently serve block j (0 without
// a session).
func (d *Deployment[E]) ReplicaCount(j int) int {
	if s := d.Session(); s != nil {
		return s.ReplicaCount(j)
	}
	return 0
}

// Adaptive returns the running control loop, or nil when the handle was not
// bound WithAdaptive.
func (d *Deployment[E]) Adaptive() *AdaptiveController { return d.ctrl }

// FleetDebugHandler serves the fleet's breaker, replica-health, standby, and
// straggler snapshot (mount as /debug/fleet). The session is resolved per
// request, so the handler stays correct across WithAdaptive reshapes;
// without a session it reports 404.
func (d *Deployment[E]) FleetDebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := d.Session()
		if s == nil {
			http.Error(w, "no fleet session bound to this deployment", http.StatusNotFound)
			return
		}
		s.DebugHandler().ServeHTTP(w, r)
	})
}

// AdaptDebugHandler serves the adaptive control plane's live snapshot
// (learned factors, plan decisions, migration events); mount as /debug/adapt.
// Without WithAdaptive it reports 404.
func (d *Deployment[E]) AdaptDebugHandler() http.Handler {
	if d.ctrl == nil {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "adaptive control plane not enabled; serve with WithAdaptive", http.StatusNotFound)
		})
	}
	return d.ctrl.DebugHandler()
}
