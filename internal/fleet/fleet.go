// Package fleet is a fault-tolerant, long-lived client-side runtime for the
// SCEC protocol over the real transport (Serve), or over modelled devices on
// a virtual clock (Simulate): one query loop, the replica race below, serves
// both, so the simulator prices the policy production runs.
//
// The paper's §VI and Remark 1 leave stragglers and faults to future work;
// the mechanism productionized here is block replication, which leaves the
// Def. 2 security argument untouched: every replica of logical block j
// stores exactly B_j·T, so each device's view — replica or not — is the
// per-device view already proven to leak nothing (Theorem 3). Only replicas
// of *different* blocks colluding would change the threat model, and that
// is the §VI collusion extension, not replication.
//
// A Session owns one deployment across a replicated device fleet and serves
// many queries against it:
//
//   - provisioning pushes each coded block to its whole replica set
//     concurrently, and keeps warm standbys unprovisioned until needed;
//   - each query races a block's replicas: the leader is the replica of
//     least expected completion by its own recent attempt latencies, the
//     first winner is consumed, a hedged second request launches if the
//     leader outlives the hedge delay (fixed, or the leader's own p95),
//     failures fail over to the next replica, and whole rounds retry with
//     exponential backoff plus jitter — all under one query deadline, as
//     one loop on the caller's goroutine that collects every reply on one
//     channel, with losers cancelled by unregistering their transport
//     streams;
//   - a ping prober feeds a per-device circuit breaker
//     (closed → open → half-open) so queries stop routing to dead replicas
//     and notice recoveries;
//   - when a block's healthy replica count degrades below its provisioned
//     target, the runtime re-pushes the block to a standby in the
//     background. No re-encode is needed: replicas of the same block are
//     security-equivalent by construction.
//
// That argument covers a device's lifetime only if it never sees a second
// block of the same encoding, so every address is bound to at most one block
// from the first Store attempted toward it until the session ends
// (device.bind — the one rule Serve, repair and Rehost place blocks by).
package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/transport"
)

// Defaults for the zero Config values.
const (
	DefaultRPCTimeout       = transport.DefaultTimeout
	DefaultProbeInterval    = time.Second
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 5 * time.Second
)

// The session's fixed retry and deadline policy. A caller bounds one query
// with its context (MulVecContext, GatherInto); DefaultQueryTimeout is the
// session's backstop behind it.
const (
	// DefaultQueryTimeout bounds one gather end to end.
	DefaultQueryTimeout = 30 * time.Second
	// DefaultMaxRetries is how many extra replica-selection rounds a block
	// fetch may run after the first.
	DefaultMaxRetries = 2
	// DefaultRetryBackoff is the base backoff between rounds: before round
	// n a block waits between half and all of 2^(n-1) times this, capped
	// at one second.
	DefaultRetryBackoff = 25 * time.Millisecond
	// DefaultProbeTimeout bounds one health ping.
	DefaultProbeTimeout = time.Second
)

// ErrBlockUnavailable reports that a query exhausted every replica, hedge,
// and retry for some logical block. Test for it with errors.Is; the full
// error is a *BlockUnavailableError carrying the block index.
var ErrBlockUnavailable = errors.New("fleet: block unavailable")

// BlockUnavailableError is the typed per-block failure a query returns when
// no replica of one logical coded block could serve it within the query
// deadline.
type BlockUnavailableError struct {
	// Block is the logical coded-block index (scheme device order).
	Block int
	// Attempts counts the replica-selection rounds that were tried.
	Attempts int
	// Err is the last underlying failure (dial error, remote error, or the
	// query deadline).
	Err error
}

func (e *BlockUnavailableError) Error() string {
	return fmt.Sprintf("fleet: block %d unavailable after %d rounds: %v", e.Block, e.Attempts, e.Err)
}

func (e *BlockUnavailableError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrBlockUnavailable) match.
func (e *BlockUnavailableError) Is(target error) bool { return target == ErrBlockUnavailable }

// Config tunes a fleet session. Replicas is mandatory; every other zero
// value selects the package default. The query deadline, the retry policy
// and the probe timeout are fixed package constants, not settings.
type Config struct {
	// Replicas[j] lists the device addresses hosting copies of coded block
	// j, in scheme device order. Every block needs at least one address and
	// no address may appear twice (a device stores exactly one block).
	Replicas [][]string
	// Standbys lists warm standby devices: running, reachable, holding no
	// block until self-repair promotes them into a degraded replica set.
	Standbys []string
	// RPCTimeout bounds each replica round trip (and each repair push).
	RPCTimeout time.Duration
	// HedgeAfter is how long the leading replica attempt may run before a
	// speculative second attempt launches. Zero selects an adaptive delay
	// per block and round: the p95 of the leader's own last winning attempt
	// latencies (launch → answer), clamped to [1ms, RPCTimeout]; until the
	// leader has won 8 races, twice its connection's last measured round
	// trip (RPCTimeout with none). Negative disables hedging.
	HedgeAfter time.Duration
	// ProbeInterval is the health-probe period. Negative disables probing
	// (and with it breaker recovery and self-repair).
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// device's circuit breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker blocks a device before
	// one half-open trial is admitted.
	BreakerCooldown time.Duration
	// DisableRepair turns off background standby promotion.
	DisableRepair bool
	// Metrics receives the session's telemetry; nil means obs.Default().
	Metrics *obs.Registry
	// Tracer, when non-nil, records a span tree per query (gather → block
	// races → replica attempts, with hedges/failovers/retries as events) and
	// adopts device-side spans re-emitted over the transport. Nil disables
	// fleet tracing; the per-device straggler records (Session.Stragglers)
	// are kept either way.
	Tracer *trace.Tracer
	// Journal receives the session's flight-recorder events (breaker
	// transitions, hedge wins, retries, repairs, rehosts); nil means
	// flight.Default().
	Journal *flight.Journal
}

// validate rejects the negative values that have no meaning. A negative
// timeout or cooldown would fail or mistime every query and strike healthy
// devices' breakers for it; HedgeAfter and ProbeInterval give negative
// values a documented meaning instead.
func (c Config) validate() error {
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"RPCTimeout", c.RPCTimeout},
		{"BreakerCooldown", c.BreakerCooldown},
	} {
		if d.v < 0 {
			return fmt.Errorf("fleet: negative %s %v", d.name, d.v)
		}
	}
	if c.BreakerThreshold < 0 {
		return fmt.Errorf("fleet: negative BreakerThreshold %d", c.BreakerThreshold)
	}
	return nil
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.RPCTimeout == 0 {
		c.RPCTimeout = DefaultRPCTimeout
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	return c
}

// blockState is one logical coded block's runtime state.
type blockState[E comparable] struct {
	index int
	rows  *matrix.Dense[E] // retained for standby repair pushes
	want  int              // expected intermediate-result length
	off   int              // the block's first row in B·T
	// target is the provisioned replica count; self-repair keeps the
	// healthy count at or above it while standbys last.
	target int

	mu        sync.Mutex
	replicas  []*device
	repairing bool

	// leader is the replica the last ranked round asked first, so a
	// demotion is journaled once per change, not once per round.
	leader atomic.Pointer[device]
}

// Session is a live fleet runtime serving queries for one deployment.
type Session[E comparable] struct {
	f    field.Field[E]
	code coding.Code[E]
	cfg  Config
	reg  *obs.Registry
	trc  *trace.Tracer
	cols int

	// stages records the gather stage of every query.
	stages *obs.StageRecorder

	link  link[E]
	clk   clock
	model *model[E] // non-nil for a simulated session

	blocks []*blockState[E]

	// devMu guards the devices map: Serve fills it, but the adaptive
	// control plane's Rehost registers fresh devices at runtime while the
	// prober iterates, so every access takes the lock.
	devMu   sync.Mutex
	devices map[string]*device

	standbyMu sync.Mutex
	standbys  []*device

	met sessionMetrics
	jr  *flight.Journal

	// queries recycles query states (see query).
	queries sync.Pool

	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// link is every transport call a session makes: the wire for a served
// session, Simulate's model for a simulated one.
type link[E comparable] interface {
	Go(ctx context.Context, addr string, x *matrix.Dense[E], call *transport.Call[E], done chan *transport.Call[E])
	Receive(call *transport.Call[E]) bool
	Cancel(call *transport.Call[E], cause error) bool
	Release(call *transport.Call[E])
	Ping(ctx context.Context, addr string) error
	LastContact(addr string) (time.Time, bool)
	LastRTT(addr string) (time.Duration, bool)
	ConnDebug(addr string) transport.ConnDebug
	Store(ctx context.Context, addr string, block *matrix.Dense[E]) error
}

// clock is the session's time. wait is the one step a query loop blocks on,
// a channel that fires at t: the wall clock arms *timer, which the caller
// keeps for the next wait, and the virtual clock jumps to the next event.
// randN draws the retry jitter, uniform in [0, n), from the clock's stream.
type clock interface {
	trace.Clock
	wait(t time.Time, timer **time.Timer) <-chan time.Time
	randN(n time.Duration) time.Duration
}

// wire is a served session's link: the client's compute requests, the
// cloud's pushes, and pings on a client of their own with DefaultProbeTimeout.
type wire[E comparable] struct {
	transport.Client[E]
	transport.Cloud[E]
	probe transport.Client[E]
}

func (*wire[E]) Receive(call *transport.Call[E]) bool             { return call.Receive() }
func (*wire[E]) Cancel(call *transport.Call[E], cause error) bool { return call.Cancel(cause) }
func (*wire[E]) Release(call *transport.Call[E])                  { call.Release() }
func (w *wire[E]) Ping(ctx context.Context, addr string) error    { return w.probe.Ping(ctx, addr) }

// wallClock is a served session's clock.
type wallClock struct{}

func (wallClock) Now() time.Time                      { return time.Now() }
func (wallClock) randN(n time.Duration) time.Duration { return rand.N(n) }

func (wallClock) wait(t time.Time, timer **time.Timer) <-chan time.Time {
	if *timer == nil {
		*timer = time.NewTimer(0)
	}
	(*timer).Reset(time.Until(t))
	return (*timer).C
}

// Serve provisions the replica fleet with enc's blocks and starts the
// runtime: blocks are pushed to every replica concurrently (recorded as the
// pipeline's store stage), the health prober starts, and the returned
// Session is ready to serve queries. Provisioning is strict — any failed
// push aborts Serve — because at provisioning time every configured device
// is expected alive; tolerance of faults begins with the first query.
func Serve[E comparable](f field.Field[E], enc *coding.Encoding[E], cfg Config) (*Session[E], error) {
	return serve(f, enc, cfg, nil)
}

// serve is Serve over the wire, or over m's modelled devices with no
// journal: a simulation is not the process's history.
func serve[E comparable](f field.Field[E], enc *coding.Encoding[E], cfg Config, m *model[E]) (*Session[E], error) {
	if enc == nil || enc.Code == nil {
		return nil, errors.New("fleet: encoding has no code attached")
	}
	code := enc.Code
	if len(enc.Blocks) != code.Devices() {
		return nil, fmt.Errorf("fleet: encoding has %d blocks, code has %d devices", len(enc.Blocks), code.Devices())
	}
	if len(cfg.Replicas) != len(enc.Blocks) {
		return nil, fmt.Errorf("fleet: %d replica sets for %d coded blocks", len(cfg.Replicas), len(enc.Blocks))
	}
	seen := make(map[string]bool)
	for j, group := range cfg.Replicas {
		if len(group) == 0 {
			return nil, fmt.Errorf("fleet: block %d has no replicas", j)
		}
		for _, addr := range group {
			if seen[addr] {
				return nil, fmt.Errorf("fleet: address %s assigned twice (a device stores exactly one block)", addr)
			}
			seen[addr] = true
		}
	}
	for _, addr := range cfg.Standbys {
		if seen[addr] {
			return nil, fmt.Errorf("fleet: standby %s already hosts a block", addr)
		}
		seen[addr] = true
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	jr := cfg.Journal
	if jr == nil && m == nil {
		jr = flight.Default()
	}

	s := &Session[E]{
		f:       f,
		code:    code,
		cfg:     cfg,
		reg:     reg,
		stages:  obs.NewStageRecorder(reg),
		cols:    enc.Blocks[0].Cols(),
		devices: make(map[string]*device),
		trc:     cfg.Tracer,
		jr:      jr,
	}
	if m != nil {
		s.link, s.clk, s.model = m, m, m
	} else {
		s.link, s.clk = &wire[E]{
			Client: transport.Client[E]{F: f, Timeout: cfg.RPCTimeout, Metrics: reg},
			Cloud:  transport.Cloud[E]{Timeout: cfg.RPCTimeout, Metrics: reg},
			probe:  transport.Client[E]{F: f, Timeout: DefaultProbeTimeout, Metrics: reg},
		}, wallClock{}
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.met.init(reg)

	s.blocks = make([]*blockState[E], len(enc.Blocks))
	for j, group := range cfg.Replicas {
		from, to := code.RowRange(j)
		b := &blockState[E]{
			index:  j,
			rows:   enc.Blocks[j],
			want:   to - from,
			off:    from,
			target: len(group),
		}
		for _, addr := range group {
			d := s.newDevice(addr)
			d.block = j // provision is about to Store block j here
			b.replicas = append(b.replicas, d)
		}
		s.blocks[j] = b
	}
	for _, addr := range cfg.Standbys {
		s.standbys = append(s.standbys, s.newDevice(addr))
	}

	if err := s.provision(enc); err != nil {
		s.cancel()
		return nil, err
	}
	if cfg.ProbeInterval > 0 {
		s.wg.Add(1)
		go s.probeLoop()
	}
	return s, nil
}

// newDevice registers a device and its breaker-state gauge, reusing the
// existing registration (breaker history included) when the address is
// already known.
func (s *Session[E]) newDevice(addr string) *device {
	s.devMu.Lock()
	defer s.devMu.Unlock()
	if d := s.devices[addr]; d != nil {
		return d
	}
	d := &device{
		addr:  addr,
		block: -1,
		gauge: s.reg.Gauge(obs.MetricFleetBreakerState, breakerHelp, obs.L("device", addr)),
		rtt: s.reg.Gauge(obs.MetricFleetDeviceRTT,
			"Most recent round-trip time per device in seconds: the connection's handshake or the latest probe ping (transport.Client.LastRTT).",
			obs.L("device", addr)),
		jr: s.jr,
	}
	d.gauge.Set(float64(BreakerClosed))
	s.devices[addr] = d
	return d
}

// provision pushes every block to its full replica set concurrently.
func (s *Session[E]) provision(enc *coding.Encoding[E]) error {
	defer func(start time.Time) { obs.ObserveStage(s.reg, obs.StageStore, s.clk.Now().Sub(start)) }(s.clk.Now())
	type push struct {
		block int
		addr  string
	}
	var pushes []push
	for j, group := range s.cfg.Replicas {
		for _, addr := range group {
			pushes = append(pushes, push{j, addr})
		}
	}
	errs := make([]error, len(pushes))
	var wg sync.WaitGroup
	for i, p := range pushes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(s.ctx, s.cfg.RPCTimeout)
			defer cancel()
			if err := s.link.Store(ctx, p.addr, enc.Blocks[p.block]); err != nil {
				errs[i] = fmt.Errorf("fleet: provision block %d on %s: %w", p.block, p.addr, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Devices returns the number of logical coded blocks (the code's device
// count); the physical fleet is larger by replication and standbys.
func (s *Session[E]) Devices() int { return s.code.Devices() }

// Close stops the prober and any in-flight repairs, cancels outstanding
// queries, and waits for the runtime's goroutines. It is idempotent and
// does not shut down the device servers, which the caller owns.
func (s *Session[E]) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		s.wg.Wait()
	})
	return nil
}
