package adapt

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/obs/trace"
)

// Substrate is what the controller drives: the live placement, the devices
// eligible to receive a block, which block each used device is bound to,
// the latency record, health and network signals, and the two migration
// mechanisms.
// internal/adapt ships the fleet-backed implementation (FleetAdapter); tests
// and the virtual-clock scenario substitute models.
type Substrate interface {
	// Placements snapshots every block's serving device (the replica the
	// planner accounts for) in scheme order.
	Placements() []BlockHost
	// Free lists devices currently eligible to receive any block (healthy
	// standbys that were never sent one under the current encoding).
	Free() []string
	// Bindings maps every address that was sent a block under the current
	// encoding — current hosts, vacated hosts, failed pushes — to that block.
	// An address is bound to at most one block until the next Reshape.
	Bindings() map[string]int
	// RowLatencies reports, for every device whose straggler record holds at
	// least fleet.MinAdaptiveSamples samples, its p50 attempt latency in
	// seconds per coded row of the block it is bound to. A device missing
	// from the map is unmeasured, and the planner prices it nominal.
	RowLatencies() map[string]float64
	// Healthy reports whether the device's breaker is closed.
	Healthy(addr string) bool
	// RTT reports the last round trip measured on addr's connection.
	RTT(addr string) (time.Duration, bool)
	// Rehost moves one block, without interrupting queries, to a device that
	// is unbound or bound to that block; it refuses any other destination.
	Rehost(ctx context.Context, block int, from, to string) error
	// Reshape re-encodes the deployment at r (new or unchanged) under fresh
	// masking rows and swaps it in behind a drain; target is the per-block
	// host assignment of the new scheme. Every earlier binding ends with it.
	Reshape(ctx context.Context, target []string, r int) error
}

// MigrationEvent is one executed (or attempted) block movement.
type MigrationEvent struct {
	At    time.Duration `json:"atNs"`
	Kind  string        `json:"kind"` // "rehost" | "reshape"
	Block int           `json:"block"`
	From  string        `json:"from,omitempty"`
	To    string        `json:"to,omitempty"`
	Err   string        `json:"error,omitempty"`
}

const (
	replansHelp    = "Adaptive control cycles, by hysteresis outcome."
	migrationsHelp = "Executed adaptive migrations, by kind and outcome."
	movedHelp      = "Coded blocks moved by adaptive migrations."
	planCostHelp   = "Learned-cost objective of the current adaptive plan."
	planRHelp      = "Coding parameter r of the current adaptive plan."
	factorHelp     = "Learned per-device cost multiplier (1 = nominal)."
)

// Controller closes the loop: every ReplanEvery it prices the devices from
// the substrate's latency record, asks the planner for a verdict, and
// executes adopted plans against the substrate. Step is exported so tests
// and the virtual-clock scenario can drive the cycle deterministically;
// Start runs it on a wall-clock ticker.
type Controller struct {
	cfg     Config
	planner *Planner
	sub     Substrate

	start time.Time

	mu        sync.Mutex
	decisions []Decision
	events    []MigrationEvent
	replans   int
	adopts    int
	moved     int

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
}

// New builds a controller over the substrate. The planner's host pool is the
// union of the current placement and the currently free devices, priced by
// cfg.BaseCosts (missing addresses cost 1): every device the fleet knows at
// construction time is a candidate for the rest of the session.
func New(cfg Config, sub Substrate) (*Controller, error) {
	cfg = cfg.withDefaults()
	placements := sub.Placements()
	if len(placements) == 0 {
		return nil, fmt.Errorf("adapt: substrate serves no blocks")
	}
	m := 0
	var hosts []Host
	seen := make(map[string]bool)
	add := func(addr string) {
		if addr == "" || seen[addr] {
			return
		}
		seen[addr] = true
		base := cfg.BaseCosts[addr]
		if base <= 0 {
			base = 1
		}
		hosts = append(hosts, Host{Addr: addr, Base: base})
	}
	for _, b := range placements {
		m += b.Rows
		add(b.Addr)
	}
	for _, addr := range sub.Free() {
		add(addr)
	}
	// The placement holds m+r coded rows; the planner needs the data rows m.
	// The largest block holds exactly r (Lemma 2 shape).
	r := 0
	for _, b := range placements {
		if b.Rows > r {
			r = b.Rows
		}
	}
	m -= r
	planner, err := NewPlanner(m, hosts, cfg.MinImprovement, cfg.Cooldown)
	if err != nil {
		return nil, err
	}
	c := &Controller{
		cfg:     cfg,
		planner: planner,
		sub:     sub,
		start:   time.Now(),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	return c, nil
}

// Now is the controller's clock: elapsed time since construction.
func (c *Controller) Now() time.Duration { return time.Since(c.start) }

// Start runs the control loop until Stop.
func (c *Controller) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.ReplanEvery)
		defer t.Stop()
		for {
			select {
			case <-c.ctx.Done():
				return
			case <-t.C:
				_, _ = c.Step(c.ctx, c.Now())
			}
		}
	}()
}

// Stop halts the control loop; in-flight migrations finish first. Idempotent.
func (c *Controller) Stop() {
	c.once.Do(func() {
		c.cancel()
		c.wg.Wait()
	})
}

// Step runs one control cycle at caller-clock time now: price the devices
// (see estimate; unhealthy devices pinned to the outage factor), decide, and
// execute an adopted plan. It returns the decision for introspection;
// execution errors are recorded as migration events and metrics, not
// returned, because a failed move leaves the fleet serving from wherever
// blocks actually are.
func (c *Controller) Step(ctx context.Context, now time.Duration) (Decision, error) {
	reg := c.cfg.Metrics
	factors := make(map[string]float64)
	for _, e := range estimate(c.sub, c.planner.Hosts()) {
		factors[e.Device] = e.Factor
	}
	for _, h := range c.planner.Hosts() {
		if !c.sub.Healthy(h.Addr) {
			if factors[h.Addr] < DefaultOutageFactor {
				factors[h.Addr] = DefaultOutageFactor
			}
		}
		reg.Gauge(obs.MetricAdaptDeviceFactor, factorHelp, obs.L("device", h.Addr)).Set(factorOr1(factors, h.Addr))
	}

	current := c.sub.Placements()
	urgent := false
	for _, b := range current {
		if !c.sub.Healthy(b.Addr) {
			urgent = true
			break
		}
	}

	var span *trace.Span
	if c.cfg.Tracer != nil {
		ctx, span = c.cfg.Tracer.StartSpan(ctx, trace.SpanAdaptReplan)
		defer span.End()
	}
	d, err := c.planner.Decide(now, factors, current, c.sub.Bindings(), urgent)
	c.mu.Lock()
	c.replans++
	if d.Adopt {
		c.adopts++
	}
	c.decisions = append(c.decisions, d)
	if len(c.decisions) > c.cfg.History {
		c.decisions = c.decisions[len(c.decisions)-c.cfg.History:]
	}
	c.mu.Unlock()
	if err != nil {
		return d, err
	}

	if d.Adopt {
		reg.Counter(obs.MetricAdaptReplansTotal, replansHelp, obs.L("outcome", "adopted")).Inc()
		c.cfg.Journal.PublishDetail(flight.KindReplanAdopt, adoptKind(d), d.Reason, int64(d.R), int64(len(d.Moves)))
		if span != nil {
			span.AddEvent(trace.EventAdopt, trace.A(trace.AttrKind, adoptKind(d)))
		}
		reg.Gauge(obs.MetricAdaptPlanCost, planCostHelp).Set(d.CandidateCost)
		reg.Gauge(obs.MetricAdaptPlanR, planRHelp).Set(float64(d.R))
		c.execute(ctx, now, d)
	} else {
		reg.Counter(obs.MetricAdaptReplansTotal, replansHelp, obs.L("outcome", "held")).Inc()
		c.cfg.Journal.PublishDetail(flight.KindReplanHold, "", d.Reason, int64(d.R), 0)
		if span != nil {
			span.AddEvent(trace.EventHold, trace.A(trace.AttrKind, d.Reason))
		}
	}
	return d, nil
}

func adoptKind(d Decision) string {
	if d.Reshape {
		return "reshape"
	}
	return "rehost"
}

func factorOr1(factors map[string]float64, addr string) float64 {
	if f, ok := factors[addr]; ok {
		return f
	}
	return 1
}

// execute realizes an adopted decision against the substrate: one reshape,
// or one rehost per move the planner emitted. The moves are independent —
// every destination is unbound or bound to the block it receives, so none is
// another move's source — and a failed one is left for a later cycle to
// re-decide.
func (c *Controller) execute(ctx context.Context, now time.Duration, d Decision) {
	ctx, cancel := context.WithTimeout(ctx, DefaultMigrateTimeout)
	defer cancel()
	if c.cfg.Tracer != nil {
		var span *trace.Span
		ctx, span = c.cfg.Tracer.StartSpan(ctx, trace.SpanAdaptMigrate, trace.A(trace.AttrKind, adoptKind(d)))
		defer span.End()
	}
	if d.Reshape {
		err := c.sub.Reshape(ctx, d.Target, d.R)
		if err != nil {
			c.cfg.Journal.PublishDetail(flight.KindReshapeFailed, "", err.Error(), int64(d.R), 0)
		} else {
			c.cfg.Journal.Publish(flight.KindReshapeOK, "", int64(d.R), int64(len(d.Target)))
		}
		c.record(MigrationEvent{At: now, Kind: "reshape", Block: -1}, err, len(d.Target))
		return
	}
	for _, mv := range d.Moves {
		err := c.sub.Rehost(ctx, mv.Block, mv.From, mv.To)
		c.record(MigrationEvent{At: now, Kind: "rehost", Block: mv.Block, From: mv.From, To: mv.To}, err, 1)
	}
}

// record accounts for one attempted migration of `blocks` blocks: the
// outcome counter, the bounded event history, and — on success — the moved
// tallies.
func (c *Controller) record(ev MigrationEvent, err error, blocks int) {
	reg := c.cfg.Metrics
	outcome := "ok"
	if err != nil {
		ev.Err, outcome, blocks = err.Error(), "failed", 0
	}
	reg.Counter(obs.MetricAdaptMigrationsTotal, migrationsHelp, obs.L("kind", ev.Kind), obs.L("outcome", outcome)).Inc()
	if err == nil {
		reg.Counter(obs.MetricAdaptBlocksMovedTotal, movedHelp).Add(int64(blocks))
	}
	c.mu.Lock()
	c.moved += blocks
	c.events = append(c.events, ev)
	if len(c.events) > c.cfg.History {
		c.events = c.events[len(c.events)-c.cfg.History:]
	}
	c.mu.Unlock()
}

// Stats reports lifetime counters: control cycles run, plans adopted, and
// blocks moved.
func (c *Controller) Stats() (replans, adopts, blocksMoved int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replans, c.adopts, c.moved
}

// String identifies the controller in logs.
func (c *Controller) String() string {
	replans, adopts, moved := c.Stats()
	return "adapt.Controller{replans=" + strconv.Itoa(replans) +
		" adopts=" + strconv.Itoa(adopts) + " moved=" + strconv.Itoa(moved) + "}"
}
