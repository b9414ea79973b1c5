package adapt

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/scec/scec/internal/alloc"
	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/loadgen"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/sim"
)

// The recovery scenario is the virtual-clock driver controller.go and the
// Substrate godoc promise: its adaptive arm is a model Substrate and the
// Controller that ships is stepped over it — no copy of the control cycle
// lives here, and everything the model prices or queues is internal/sim's.

// ScenarioConfig describes the virtual-clock recovery study: a large fleet
// deployed by TA2 on base costs, hit mid-run by a chronic straggler and a
// transient outage, served under three regimes — the adaptive control plane,
// a frozen baseline that never re-plans, and an oracle that re-plans
// instantly on the true factors. Everything runs on the virtual clock with
// one seeded RNG, so a given config yields a bit-identical report.
type ScenarioConfig struct {
	// Devices is the candidate pool size (default 1000); M the data matrix's
	// row count (default 4096).
	Devices, M int
	// QPS is the open-loop offered load (default 100); Duration the virtual
	// run length (default 60s).
	QPS      float64
	Duration time.Duration
	// Seed drives the Poisson arrivals (default 1).
	Seed uint64

	// StragglerAt injects a chronic scenarioStragglerFactor× slowdown into
	// the device hosting block 0, at 10s by default; negative disables.
	StragglerAt time.Duration
	// OutageAt takes the device hosting block 1 down for
	// scenarioOutageDuration (default 20s); negative disables.
	OutageAt time.Duration
	// Replay, when non-nil, replaces the built-in chronic straggler with a
	// recorded per-device factor timeline (loadgen.ReplayFromStragglers);
	// Devices[j] follows pool device j.
	Replay *loadgen.Replay

	// InitialR forces the starting deployment to the (suboptimal) plan
	// PlanForR(base, InitialR) instead of the TA2 optimum — a way to watch
	// the control plane discover a better r and reshape. Zero starts
	// optimal.
	InitialR int
}

// The scenario's fixed shape, with the reason for each value.
const (
	// scenarioCols is the data matrix's column count: a 91-row block of 256
	// columns is ~46k field operations, so a round is compute-dominated.
	scenarioCols = 256
	// scenarioConcurrency is how many rounds the user keeps in flight — the
	// virtual load sweep's default, so the two studies queue alike.
	scenarioConcurrency = 16
	// scenarioCostSpread shapes base costs: device j costs
	// 1 + spread·j/(k−1), so TA2 uses a cheap prefix and leaves the expensive
	// tail as migration headroom.
	scenarioCostSpread = 1.0
	// scenarioStragglerFactor is the chronic slowdown: at 5× a round takes
	// ~240 ms, 16 in flight serve ~68 QPS against 100 offered, and a plan
	// that keeps the straggler queues without bound.
	scenarioStragglerFactor = 5.0
	// scenarioOutageDuration spans many control periods and still ends before
	// the steady-state window opens.
	scenarioOutageDuration = 8 * time.Second
	// scenarioMeasureFrom is where the steady-state window starts, as a
	// fraction of Duration — after both faults and the recovery transient.
	scenarioMeasureFrom = 0.6
	// The control loop runs tighter than the wall-clock defaults to match the
	// virtual timescale; MinSamples, MaxFactor and OutageFactor stay at the
	// adapt defaults.
	scenarioReplanEvery    = 500 * time.Millisecond
	scenarioMinImprovement = 0.03
	scenarioCooldown       = 2 * time.Second
	scenarioAlpha          = 0.35
)

// scenarioProfile is the nominal device: 1 MF/s compute, 10M values/s links,
// 2 ms latency — compute-dominated, so straggling is visible.
var scenarioProfile = sim.DeviceProfile{
	ComputeRate:     1e6,
	UplinkRate:      10e6,
	DownlinkRate:    10e6,
	Latency:         2 * time.Millisecond,
	StragglerFactor: 1,
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Devices <= 0 {
		c.Devices = 1000
	}
	if c.M <= 0 {
		c.M = 4096
	}
	if c.QPS <= 0 {
		c.QPS = 100
	}
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.StragglerAt == 0 {
		c.StragglerAt = 10 * time.Second
	}
	if c.OutageAt == 0 {
		c.OutageAt = 20 * time.Second
	}
	return c
}

// ArmResult summarizes one serving regime.
type ArmResult struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	// FailedQueries is always 0 by construction — migrations never drop a
	// request — and reported so the invariant is pinned in results files.
	FailedQueries int `json:"failedQueries"`
	// Steady* are quantiles over requests arriving after MeasureFromMs;
	// OverallP99 covers the whole run (fault transients included).
	SteadyP50Ms  float64 `json:"steadyP50Ms"`
	SteadyP95Ms  float64 `json:"steadyP95Ms"`
	SteadyP99Ms  float64 `json:"steadyP99Ms"`
	OverallP99Ms float64 `json:"overallP99Ms"`
	// Replans/Adopts/BlocksMoved are the controller's Stats() (adaptive arm
	// only).
	Replans     int `json:"replans,omitempty"`
	Adopts      int `json:"adopts,omitempty"`
	BlocksMoved int `json:"blocksMoved,omitempty"`
	// FinalR and FinalBaseCost describe the placement at the end of the run
	// (cost at the provisioning-time base prices, the paper's objective).
	FinalR        int     `json:"finalR"`
	FinalBaseCost float64 `json:"finalBaseCost"`
}

// RecoveryReport is the scenario's deterministic output.
type RecoveryReport struct {
	Devices, M      int     `json:"-"`
	QPS             float64 `json:"qps"`
	Seed            uint64  `json:"seed"`
	DurationMs      int64   `json:"durationMs"`
	MeasureFromMs   int64   `json:"measureFromMs"`
	StragglerDevice int     `json:"stragglerDevice"`
	OutageDevice    int     `json:"outageDevice"`

	Adaptive ArmResult `json:"adaptive"`
	Frozen   ArmResult `json:"frozen"`
	Oracle   ArmResult `json:"oracle"`

	// AdaptiveOverOracleP99 is adaptive steady p99 / oracle steady p99 (the
	// acceptance bound is ≤ 1.5); FrozenOverAdaptiveP99 is frozen steady
	// p99 / adaptive steady p99 (the bound is ≥ 2).
	AdaptiveOverOracleP99 float64 `json:"adaptiveOverOracleP99"`
	FrozenOverAdaptiveP99 float64 `json:"frozenOverAdaptiveP99"`

	// MaxBlocksPerDevice is the most distinct blocks any address was sent
	// under one encoding over the adaptive arm's whole run. Def. 2 covers a
	// single block, so the acceptance bound is exactly 1.
	MaxBlocksPerDevice int `json:"maxBlocksPerDevice"`
	// FailedMigrations counts the controller's migration events that carry an
	// error. The model refuses nothing, so the acceptance bound is 0.
	FailedMigrations int `json:"failedMigrations"`

	// Events is the adaptive arm's decision/migration log.
	Events []string `json:"events"`
}

// RunScenario runs the three arms and compares them.
func RunScenario(cfg ScenarioConfig) (*RecoveryReport, error) {
	return runScenario(cfg, func(model Substrate) Substrate { return model })
}

// runScenario is RunScenario with a seam: the controller drives wrap(model),
// so a test can interpose on the model substrate.
func runScenario(cfg ScenarioConfig, wrap func(Substrate) Substrate) (*RecoveryReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Replay.Validate(); err != nil {
		return nil, err
	}
	base := make([]float64, cfg.Devices)
	hosts := make([]Host, cfg.Devices)
	for j := range base {
		base[j] = 1 + scenarioCostSpread*float64(j)/float64(cfg.Devices-1)
		hosts[j] = Host{Addr: "dev-" + strconv.Itoa(j), Base: base[j]}
	}
	var plan0 alloc.Plan
	var err error
	if cfg.InitialR > 0 {
		plan0, err = alloc.PlanForR(alloc.Instance{M: cfg.M, Costs: base}, cfg.InitialR)
	} else {
		plan0, err = alloc.TA2(alloc.Instance{M: cfg.M, Costs: base})
	}
	if err != nil {
		return nil, fmt.Errorf("adapt: scenario: initial plan: %w", err)
	}
	if plan0.I < 2 {
		return nil, fmt.Errorf("adapt: scenario: degenerate initial plan (i=%d)", plan0.I)
	}
	measureFrom := time.Duration(scenarioMeasureFrom * float64(cfg.Duration))

	// One arrival schedule shared by every arm: Poisson at QPS until
	// Duration.
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xadab7))
	var arrivals []time.Duration
	for at := time.Duration(0); at < cfg.Duration; {
		arrivals = append(arrivals, at)
		at += time.Duration(rng.ExpFloat64() / cfg.QPS * float64(time.Second))
	}

	rep := &RecoveryReport{
		Devices: cfg.Devices, M: cfg.M,
		QPS: cfg.QPS, Seed: cfg.Seed,
		DurationMs:      cfg.Duration.Milliseconds(),
		MeasureFromMs:   measureFrom.Milliseconds(),
		StragglerDevice: plan0.Assignments[0].Device,
		OutageDevice:    plan0.Assignments[1].Device,
	}
	adaptive := newArm(cfg, "adaptive", hosts, plan0)
	if err := adaptive.control(wrap(adaptive)); err != nil {
		return nil, err
	}
	rep.Frozen = newArm(cfg, "frozen", hosts, plan0).run(arrivals, measureFrom)
	rep.Oracle = newArm(cfg, "oracle", hosts, plan0).run(arrivals, measureFrom)
	rep.Adaptive = adaptive.run(arrivals, measureFrom)
	rep.Events = adaptive.events
	rep.MaxBlocksPerDevice = adaptive.maxSent
	rep.FailedMigrations = adaptive.failed
	if rep.Oracle.SteadyP99Ms > 0 {
		rep.AdaptiveOverOracleP99 = rep.Adaptive.SteadyP99Ms / rep.Oracle.SteadyP99Ms
	}
	if rep.Adaptive.SteadyP99Ms > 0 {
		rep.FrozenOverAdaptiveP99 = rep.Frozen.SteadyP99Ms / rep.Adaptive.SteadyP99Ms
	}
	return rep, nil
}

// The recovery study's acceptance bounds (results/adapt.json): the adaptive
// arm's steady-state p99 recovers to within 1.5× the instant-replanning
// oracle, and the frozen baseline stays at least 2× worse than adaptive.
const (
	scenarioMaxOverOracle   = 1.5
	scenarioMinFrozenFactor = 2.0
)

// CheckRecovery enforces the recovery study's acceptance bounds: no arm
// fails a query, adaptive is within scenarioMaxOverOracle of the oracle and
// scenarioMinFrozenFactor better than frozen, and over the whole adaptive
// run no device is sent two blocks of one encoding and no migration the
// controller attempted fails.
func CheckRecovery(rep *RecoveryReport) error {
	for _, a := range []ArmResult{rep.Frozen, rep.Adaptive, rep.Oracle} {
		if a.FailedQueries != 0 {
			return fmt.Errorf("adapt check: %s arm failed %d queries; migrations must drop none", a.Name, a.FailedQueries)
		}
	}
	if rep.AdaptiveOverOracleP99 > scenarioMaxOverOracle {
		return fmt.Errorf("adapt check: adaptive steady p99 is %.2fx the oracle's (bound %.1fx)",
			rep.AdaptiveOverOracleP99, scenarioMaxOverOracle)
	}
	if rep.MaxBlocksPerDevice != 1 {
		return fmt.Errorf("adapt check: a device was sent %d different blocks of one encoding; Def. 2 covers one",
			rep.MaxBlocksPerDevice)
	}
	if rep.FailedMigrations != 0 {
		return fmt.Errorf("adapt check: %d migration(s) the controller attempted failed; the model substrate refuses none", rep.FailedMigrations)
	}
	if rep.FrozenOverAdaptiveP99 < scenarioMinFrozenFactor {
		return fmt.Errorf("adapt check: frozen baseline is only %.2fx worse than adaptive (bound %.1fx): the control plane bought too little",
			rep.FrozenOverAdaptiveP99, scenarioMinFrozenFactor)
	}
	return nil
}

// WriteText renders the report as a console summary: one row per arm, the
// ratios against their bounds, and the adaptive arm's event log.
func (rep *RecoveryReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "recovery scenario: %d devices, m=%d, %.0f QPS for %s (seed %d)\n",
		rep.Devices, rep.M, rep.QPS, time.Duration(rep.DurationMs)*time.Millisecond, rep.Seed)
	fmt.Fprintf(w, "faults: chronic straggler on device %d, outage on device %d\n",
		rep.StragglerDevice, rep.OutageDevice)
	fmt.Fprintln(w, "arm       steady-p50   steady-p95   steady-p99   overall-p99  final-r  replans  adopts  moved")
	for _, a := range []ArmResult{rep.Frozen, rep.Adaptive, rep.Oracle} {
		fmt.Fprintf(w, "%-8s %9.2fms  %9.2fms  %9.2fms  %9.2fms  %7d  %7d  %6d  %5d\n",
			a.Name, a.SteadyP50Ms, a.SteadyP95Ms, a.SteadyP99Ms, a.OverallP99Ms,
			a.FinalR, a.Replans, a.Adopts, a.BlocksMoved)
	}
	fmt.Fprintf(w, "adaptive/oracle steady p99 = %.2fx (bound ≤ %.1fx); frozen/adaptive = %.2fx (bound ≥ %.1fx)\n",
		rep.AdaptiveOverOracleP99, scenarioMaxOverOracle, rep.FrozenOverAdaptiveP99, scenarioMinFrozenFactor)
	fmt.Fprintf(w, "most blocks any device was sent under one encoding: %d (bound = 1); failed migrations: %d (bound = 0)\n",
		rep.MaxBlocksPerDevice, rep.FailedMigrations)
	for _, ev := range rep.Events {
		fmt.Fprintf(w, "  %s\n", ev)
	}
}

// WriteJSON renders the report as the indented JSON of results/adapt.json.
func (rep *RecoveryReport) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// arm is one serving regime's simulation state. The adaptive arm is also the
// model Substrate its controller drives.
type arm struct {
	cfg        ScenarioConfig
	name       string
	hosts      []Host
	sDev, oDev int

	placement []BlockHost // live assignment, scheme block order
	devOf     map[string]int

	// adaptive state
	ctl      *Controller
	now      time.Duration // virtual time of the control cycle in progress
	nextTick time.Duration
	// pending is the placement a migration in flight installs at pendingAt
	// (nil when none); the controller is not stepped until it lands.
	pending   []BlockHost
	pendingAt time.Duration
	// sent[addr] lists the distinct blocks pushed to addr under the current
	// encoding (the model's bindings); maxSent is the longest list ever seen.
	sent    map[string][]int
	maxSent int
	failed  int // controller migration events that carried an error
	events  []string

	// oracle state: when the true factors change, and how many were handled
	oracleAt []time.Duration
	oracleIx int
}

var _ Substrate = (*arm)(nil)

func newArm(cfg ScenarioConfig, name string, hosts []Host, plan0 alloc.Plan) *arm {
	a := &arm{
		cfg: cfg, name: name, hosts: hosts, placement: placementOf(plan0, hosts),
		sDev: plan0.Assignments[0].Device, oDev: plan0.Assignments[1].Device,
		devOf: make(map[string]int, len(hosts)),
	}
	for j, h := range hosts {
		a.devOf[h.Addr] = j
	}
	switch name {
	case "adaptive":
		a.sent = make(map[string][]int)
		a.store(a.placement)
		a.nextTick = scenarioReplanEvery
	case "oracle":
		if cfg.StragglerAt >= 0 && cfg.Replay == nil {
			a.oracleAt = append(a.oracleAt, cfg.StragglerAt)
		}
		if cfg.OutageAt >= 0 {
			a.oracleAt = append(a.oracleAt, cfg.OutageAt, cfg.OutageAt+scenarioOutageDuration)
		}
		if cfg.Replay != nil {
			for _, steps := range cfg.Replay.Devices {
				for _, s := range steps {
					a.oracleAt = append(a.oracleAt, s.At)
				}
			}
		}
		sort.Slice(a.oracleAt, func(i, j int) bool { return a.oracleAt[i] < a.oracleAt[j] })
	}
	return a
}

// control builds the arm's controller over sub with private telemetry, so a
// thousand model devices mint no series in the process-wide registry.
func (a *arm) control(sub Substrate) (err error) {
	base := make(map[string]float64, len(a.hosts))
	for _, h := range a.hosts {
		base[h.Addr] = h.Base
	}
	a.ctl, err = New(Config{
		ReplanEvery:    scenarioReplanEvery,
		Alpha:          scenarioAlpha,
		MinImprovement: scenarioMinImprovement,
		Cooldown:       scenarioCooldown,
		// step reads a cycle's events back: at most one per device.
		History:   len(a.hosts),
		BaseCosts: base,
		Metrics:   obs.New(),
		Journal:   flight.New(flight.Options{}),
	}, sub)
	return err
}

// placementOf maps a plan onto host addresses in scheme block order.
func placementOf(p alloc.Plan, hosts []Host) []BlockHost {
	out := make([]BlockHost, len(p.Assignments))
	for b, as := range p.Assignments {
		out[b] = BlockHost{Block: b, Addr: hosts[as.Device].Addr, Rows: as.Rows}
	}
	return out
}

// store models pushing each block to its host under the current encoding.
func (a *arm) store(blocks []BlockHost) {
	for _, b := range blocks {
		if !slices.Contains(a.sent[b.Addr], b.Block) {
			a.sent[b.Addr] = append(a.sent[b.Addr], b.Block)
		}
		a.maxSent = max(a.maxSent, len(a.sent[b.Addr]))
	}
}

// trueFactor is the device's real slowdown at virtual time t.
func (a *arm) trueFactor(dev int, t time.Duration) float64 {
	if a.cfg.Replay != nil {
		return a.cfg.Replay.FactorAt(dev, t)
	}
	if dev == a.sDev && a.cfg.StragglerAt >= 0 && t >= a.cfg.StragglerAt {
		return scenarioStragglerFactor
	}
	return 1
}

// downUntil returns when the device recovers, or 0 if it is up at t.
func (a *arm) downUntil(dev int, t time.Duration) time.Duration {
	if a.cfg.OutageAt < 0 || dev != a.oDev {
		return 0
	}
	end := a.cfg.OutageAt + scenarioOutageDuration
	if t >= a.cfg.OutageAt && t < end {
		return end
	}
	return 0
}

// contribution prices one device's share of a round starting at t.
func (a *arm) contribution(dev, rows int, t time.Duration) time.Duration {
	return sim.PerturbedRoundTime(rows, scenarioCols, scenarioProfile, a.trueFactor(dev, t), a.downUntil(dev, t), t)
}

// service prices one round at t — the slowest participating device — after
// running the arm's control machinery up to t.
func (a *arm) service(t time.Duration) time.Duration {
	a.advance(t)
	var worst time.Duration
	for _, b := range a.placement {
		worst = max(worst, a.contribution(a.devOf[b.Addr], b.Rows, t))
	}
	return worst
}

// advance runs the arm's control machinery up to virtual time t.
func (a *arm) advance(t time.Duration) {
	switch a.name {
	case "oracle":
		for a.oracleIx < len(a.oracleAt) && a.oracleAt[a.oracleIx] <= t {
			a.oracleReplan(a.oracleAt[a.oracleIx])
			a.oracleIx++
		}
	case "adaptive":
		for {
			// Interleave control ticks and migration completions in time
			// order.
			if a.pending != nil && a.pendingAt <= t && a.pendingAt <= a.nextTick {
				a.placement, a.pending = a.pending, nil
				continue
			}
			if a.nextTick <= t {
				a.step(a.nextTick)
				a.nextTick += scenarioReplanEvery
				continue
			}
			return
		}
	}
}

// oracleReplan re-runs TA2 on the true factors, applied instantly and free.
func (a *arm) oracleReplan(t time.Duration) {
	costs := make([]float64, len(a.hosts))
	for j, h := range a.hosts {
		f := a.trueFactor(j, t)
		if a.downUntil(j, t) > t {
			f = math.Max(f, DefaultOutageFactor)
		}
		costs[j] = h.Base * f
	}
	plan, err := alloc.TA2(alloc.Instance{M: a.cfg.M, Costs: costs})
	if err != nil {
		return
	}
	a.placement = placementOf(plan, a.hosts)
}

// step is one control period at virtual time t: feed the estimator, then —
// unless a migration is in flight — run the controller's cycle and log it.
func (a *arm) step(t time.Duration) {
	// Feed the estimator what the straggler digest would have seen: each
	// participating device's winning-attempt latency at its true speed.
	for _, b := range a.placement {
		dev := a.devOf[b.Addr]
		if a.downUntil(dev, t) > t {
			continue // a down device wins no attempts
		}
		a.ctl.Estimator().ObserveLatency(b.Addr, t, a.contribution(dev, b.Rows, t), b.Rows)
	}
	if a.pending != nil {
		return // one migration at a time
	}
	a.now = t
	d, err := a.ctl.Step(context.Background(), t)
	if err != nil || !d.Adopt {
		return
	}
	a.events = append(a.events, fmt.Sprintf("t=%.2fs %s", t.Seconds(), d.Reason))
	for _, ev := range a.ctl.Debug().Events {
		if ev.At != t {
			continue // an earlier cycle's
		}
		what := fmt.Sprintf("rehost block %d %s → %s", ev.Block, ev.From, ev.To)
		if ev.Kind == "reshape" {
			what = fmt.Sprintf("reshape to r=%d over %d devices", d.R, len(d.Target))
		}
		switch {
		case ev.Err != "":
			a.failed++
			what += " failed: " + ev.Err
		case ev.Kind == "reshape":
			what += fmt.Sprintf(" (ready %.2fs)", a.pendingAt.Seconds())
		}
		a.events = append(a.events, fmt.Sprintf("t=%.2fs %s", t.Seconds(), what))
	}
}

// Placements implements Substrate.
func (a *arm) Placements() []BlockHost { return slices.Clone(a.placement) }

// Free implements Substrate: reachable devices never sent a block under the
// current encoding, in pool order.
func (a *arm) Free() []string {
	var free []string
	for _, h := range a.hosts {
		if _, used := a.sent[h.Addr]; !used && a.Healthy(h.Addr) {
			free = append(free, h.Addr)
		}
	}
	return free
}

// Bindings implements Substrate.
func (a *arm) Bindings() map[string]int {
	bound := make(map[string]int, len(a.sent))
	for addr, blocks := range a.sent {
		bound[addr] = blocks[0]
	}
	return bound
}

// Healthy implements Substrate: a device in its outage window is not.
func (a *arm) Healthy(addr string) bool { return a.downUntil(a.devOf[addr], a.now) <= a.now }

// RTT implements Substrate; the model has no heartbeat signal.
func (a *arm) RTT(string) (time.Duration, bool) { return 0, false }

// Rehost implements Substrate. The controller's pushes run one after another,
// so each move extends the migration in flight by its block's push time.
func (a *arm) Rehost(_ context.Context, block int, _, to string) error {
	if a.pending == nil {
		a.pending, a.pendingAt = slices.Clone(a.placement), a.now
	}
	a.pending[block].Addr = to
	a.store(a.pending[block : block+1])
	a.pendingAt += sim.PushTime(a.pending[block].Rows, scenarioCols, scenarioProfile)
	return nil
}

// Reshape implements Substrate: every block of the fresh encoding is pushed
// in parallel, and the new epoch starts with nothing bound.
func (a *arm) Reshape(_ context.Context, target []string, r int) error {
	scheme, err := coding.New(a.cfg.M, r)
	if err != nil {
		return err
	}
	if scheme.Devices() != len(target) {
		return fmt.Errorf("adapt: scenario: r=%d codes %d blocks, the plan places %d", r, scheme.Devices(), len(target))
	}
	next := make([]BlockHost, len(target))
	var push time.Duration
	for b, addr := range target {
		next[b] = BlockHost{Block: b, Addr: addr, Rows: scheme.RowsOn(b)}
		push = max(push, sim.PushTime(next[b].Rows, scenarioCols, scenarioProfile))
	}
	a.pending, a.pendingAt = next, a.now+push
	clear(a.sent)
	a.store(next)
	return nil
}

// run drives the arrival schedule through the arm and summarizes it; the
// steady-state window opens at measureFrom.
func (a *arm) run(arrivals []time.Duration, measureFrom time.Duration) ArmResult {
	queue := sim.NewRoundQueue(scenarioConcurrency)
	var overall, steady []time.Duration
	for _, arrive := range arrivals {
		finish := queue.Serve(arrive, a.service)
		overall = append(overall, finish-arrive)
		if arrive >= measureFrom {
			steady = append(steady, finish-arrive)
		}
	}
	res := ArmResult{
		Name:         a.name,
		Requests:     len(arrivals),
		SteadyP50Ms:  msOf(quantileDur(steady, 0.50)),
		SteadyP95Ms:  msOf(quantileDur(steady, 0.95)),
		SteadyP99Ms:  msOf(quantileDur(steady, 0.99)),
		OverallP99Ms: msOf(quantileDur(overall, 0.99)),
	}
	if a.ctl != nil {
		res.Replans, res.Adopts, res.BlocksMoved = a.ctl.Stats()
	}
	for _, b := range a.placement {
		res.FinalBaseCost += float64(b.Rows) * a.hosts[a.devOf[b.Addr]].Base
		res.FinalR = max(res.FinalR, b.Rows)
	}
	return res
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func quantileDur(v []time.Duration, q float64) time.Duration {
	if len(v) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	ix := int(math.Ceil(q*float64(len(s)))) - 1
	if ix < 0 {
		ix = 0
	}
	if ix >= len(s) {
		ix = len(s) - 1
	}
	return s[ix]
}
