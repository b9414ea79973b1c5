package adapt

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/scec/scec/internal/alloc"
	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/loadgen"
	"github.com/scec/scec/internal/sim"
)

// ScenarioConfig describes the virtual-clock recovery study: a large fleet
// deployed by TA2 on base costs, hit mid-run by a chronic straggler and a
// transient outage, served under three regimes — the adaptive control plane,
// a frozen baseline that never re-plans, and an oracle that re-plans
// instantly on the true factors. Everything runs on the virtual clock with
// one seeded RNG, so a given config yields a bit-identical report.
type ScenarioConfig struct {
	// Devices is the candidate pool size (default 1000); M×Cols the data
	// matrix shape (default 4096×256).
	Devices, M, Cols int
	// Concurrency is how many rounds the user keeps in flight (default 16);
	// QPS the open-loop offered load (default 100); Duration the virtual run
	// length (default 60s).
	Concurrency int
	QPS         float64
	Duration    time.Duration
	// Seed drives the Poisson arrivals (default 1).
	Seed uint64
	// Profile is the nominal device (zero: 1 MF/s compute, 10M values/s
	// links, 2 ms latency — compute-dominated, so straggling is visible).
	Profile sim.DeviceProfile
	// CostSpread shapes base costs: device j costs 1 + CostSpread·j/(k−1)
	// (default 1), so TA2 uses a cheap prefix and leaves the expensive tail
	// as migration headroom.
	CostSpread float64

	// StragglerAt injects a chronic StragglerFactor× slowdown (default 5×)
	// into the device hosting block 0, at 10s by default; negative disables.
	StragglerAt     time.Duration
	StragglerFactor float64
	// OutageAt takes the device hosting block 1 down for OutageDuration
	// (defaults 20s and 8s); negative disables.
	OutageAt       time.Duration
	OutageDuration time.Duration
	// Replay, when non-nil, replaces the built-in chronic straggler with a
	// recorded per-device factor timeline (loadgen.ReplayFromStragglers);
	// Devices[j] follows pool device j.
	Replay *loadgen.Replay

	// InitialR forces the starting deployment to the (suboptimal) plan
	// PlanForR(base, InitialR) instead of the TA2 optimum — a way to watch
	// the control plane discover a better r and reshape. Zero starts
	// optimal.
	InitialR int

	// Control-loop knobs; zero values select the adapt defaults, except
	// ReplanEvery (default 500ms), MinImprovement (default 0.03), and
	// Cooldown (default 2s), which run tighter than the wall-clock defaults
	// to match the virtual timescale.
	ReplanEvery    time.Duration
	MinImprovement float64
	Cooldown       time.Duration
	Alpha          float64
	MinSamples     int
	OutageFactor   float64
	MaxFactor      float64

	// MeasureFrom is where the steady-state window starts (default
	// 0.6×Duration — after both faults and the recovery transient).
	MeasureFrom time.Duration
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.Devices <= 0 {
		c.Devices = 1000
	}
	if c.M <= 0 {
		c.M = 4096
	}
	if c.Cols <= 0 {
		c.Cols = 256
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 16
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
	if c.Profile == (sim.DeviceProfile{}) {
		c.Profile = sim.DeviceProfile{
			ComputeRate:     1e6,
			UplinkRate:      10e6,
			DownlinkRate:    10e6,
			Latency:         2 * time.Millisecond,
			StragglerFactor: 1,
		}
	}
	if c.CostSpread <= 0 {
		c.CostSpread = 1
	}
	if c.StragglerAt == 0 {
		c.StragglerAt = 10 * time.Second
	}
	if c.StragglerFactor <= 1 {
		c.StragglerFactor = 5
	}
	if c.OutageAt == 0 {
		c.OutageAt = 20 * time.Second
	}
	if c.OutageDuration <= 0 {
		c.OutageDuration = 8 * time.Second
	}
	if c.ReplanEvery <= 0 {
		c.ReplanEvery = 500 * time.Millisecond
	}
	if c.MinImprovement <= 0 {
		c.MinImprovement = 0.03
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.35
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.OutageFactor <= 1 {
		c.OutageFactor = DefaultOutageFactor
	}
	if c.MaxFactor <= 1 {
		c.MaxFactor = DefaultMaxFactor
	}
	if c.MeasureFrom <= 0 {
		c.MeasureFrom = time.Duration(0.6 * float64(c.Duration))
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
	// Steady* are quantiles over requests arriving after MeasureFrom;
	// OverallP99 covers the whole run (fault transients included).
	SteadyP50Ms  float64 `json:"steadyP50Ms"`
	SteadyP95Ms  float64 `json:"steadyP95Ms"`
	SteadyP99Ms  float64 `json:"steadyP99Ms"`
	OverallP99Ms float64 `json:"overallP99Ms"`
	// Replans/Adopts/BlocksMoved count control activity (adaptive arm only).
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
	Devices, M, Cols int     `json:"-"`
	QPS              float64 `json:"qps"`
	Seed             uint64  `json:"seed"`
	DurationMs       int64   `json:"durationMs"`
	MeasureFromMs    int64   `json:"measureFromMs"`
	StragglerDevice  int     `json:"stragglerDevice"`
	OutageDevice     int     `json:"outageDevice"`

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

	// Events is the adaptive arm's decision/migration log.
	Events []string `json:"events"`
}

// RunScenario runs the three arms and compares them.
func RunScenario(cfg ScenarioConfig) (*RecoveryReport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Replay.Validate(); err != nil {
		return nil, err
	}
	base := make([]float64, cfg.Devices)
	hosts := make([]Host, cfg.Devices)
	for j := range base {
		base[j] = 1 + cfg.CostSpread*float64(j)/float64(cfg.Devices-1)
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
	sDev, oDev := plan0.Assignments[0].Device, plan0.Assignments[1].Device

	// One arrival schedule shared by every arm: Poisson at QPS until
	// Duration.
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xadab7))
	var arrivals []time.Duration
	for at := time.Duration(0); at < cfg.Duration; {
		arrivals = append(arrivals, at)
		at += time.Duration(rng.ExpFloat64() / cfg.QPS * float64(time.Second))
	}

	rep := &RecoveryReport{
		Devices: cfg.Devices, M: cfg.M, Cols: cfg.Cols,
		QPS: cfg.QPS, Seed: cfg.Seed,
		DurationMs:      cfg.Duration.Milliseconds(),
		MeasureFromMs:   cfg.MeasureFrom.Milliseconds(),
		StragglerDevice: sDev,
		OutageDevice:    oDev,
	}
	frozen := newArm(cfg, "frozen", hosts, base, plan0, sDev, oDev)
	oracle := newArm(cfg, "oracle", hosts, base, plan0, sDev, oDev)
	adaptive := newArm(cfg, "adaptive", hosts, base, plan0, sDev, oDev)
	rep.Frozen = frozen.run(arrivals)
	rep.Oracle = oracle.run(arrivals)
	rep.Adaptive = adaptive.run(arrivals)
	rep.Events = adaptive.events
	rep.MaxBlocksPerDevice = adaptive.maxSent
	if rep.Oracle.SteadyP99Ms > 0 {
		rep.AdaptiveOverOracleP99 = rep.Adaptive.SteadyP99Ms / rep.Oracle.SteadyP99Ms
	}
	if rep.Adaptive.SteadyP99Ms > 0 {
		rep.FrozenOverAdaptiveP99 = rep.Frozen.SteadyP99Ms / rep.Adaptive.SteadyP99Ms
	}
	return rep, nil
}

// arm is one serving regime's simulation state.
type arm struct {
	cfg        ScenarioConfig
	name       string
	hosts      []Host
	base       []float64
	sDev, oDev int

	placement []BlockHost // live assignment, scheme block order
	devOf     map[string]int
	// sent[addr] lists the distinct blocks pushed to addr under the current
	// encoding (the model's bindings); maxSent is the longest list ever seen.
	sent    map[string][]int
	maxSent int

	// adaptive state
	est       *Estimator
	planner   *Planner
	nextTick  time.Duration
	pending   []BlockHost // migration in flight, applied at pendingAt
	pendingAt time.Duration
	havePend  bool
	replans   int
	adopts    int
	moved     int
	events    []string

	// oracle state
	oracleAt []time.Duration
	oracleIx int
}

func newArm(cfg ScenarioConfig, name string, hosts []Host, base []float64, plan0 alloc.Plan, sDev, oDev int) *arm {
	a := &arm{cfg: cfg, name: name, hosts: hosts, base: base, sDev: sDev, oDev: oDev}
	a.devOf = make(map[string]int, len(hosts))
	for j, h := range hosts {
		a.devOf[h.Addr] = j
	}
	a.placement = placementOf(plan0, hosts)
	switch name {
	case "adaptive":
		a.sent = make(map[string][]int)
		a.store(a.placement)
		a.est = NewEstimator(cfg.Alpha, cfg.MinSamples, cfg.MaxFactor)
		a.planner, _ = NewPlanner(cfg.M, hosts, cfg.MinImprovement, cfg.Cooldown)
		a.nextTick = cfg.ReplanEvery
	case "oracle":
		times := []time.Duration{}
		if cfg.StragglerAt >= 0 && cfg.Replay == nil {
			times = append(times, cfg.StragglerAt)
		}
		if cfg.OutageAt >= 0 {
			times = append(times, cfg.OutageAt, cfg.OutageAt+cfg.OutageDuration)
		}
		if cfg.Replay != nil {
			for _, steps := range cfg.Replay.Devices {
				for _, s := range steps {
					times = append(times, s.At)
				}
			}
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		a.oracleAt = times
	}
	return a
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
		f := 1.0
		if dev < len(a.cfg.Replay.Devices) {
			for _, s := range a.cfg.Replay.Devices[dev] {
				if s.At > t {
					break
				}
				f = s.Factor
			}
		}
		if f < 1 {
			f = 1
		}
		return f
	}
	if dev == a.sDev && a.cfg.StragglerAt >= 0 && t >= a.cfg.StragglerAt {
		return a.cfg.StragglerFactor
	}
	return 1
}

// downUntil returns when the device recovers, or 0 if it is up at t.
func (a *arm) downUntil(dev int, t time.Duration) time.Duration {
	if a.cfg.OutageAt < 0 || dev != a.oDev {
		return 0
	}
	end := a.cfg.OutageAt + a.cfg.OutageDuration
	if t >= a.cfg.OutageAt && t < end {
		return end
	}
	return 0
}

// contribution prices one device's share of a round starting at t.
func (a *arm) contribution(dev, rows int, t time.Duration) time.Duration {
	p := a.cfg.Profile
	p.StragglerFactor *= a.trueFactor(dev, t)
	d := sim.DeviceRoundTime(rows, a.cfg.Cols, 1, p)
	if end := a.downUntil(dev, t); end > t {
		d += end - t
	}
	return d
}

// service prices one round at t: the slowest participating device.
func (a *arm) service(t time.Duration) time.Duration {
	var worst time.Duration
	for _, b := range a.placement {
		if d := a.contribution(a.devOf[b.Addr], b.Rows, t); d > worst {
			worst = d
		}
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
			if a.havePend && a.pendingAt <= t && a.pendingAt <= a.nextTick {
				a.placement = a.pending
				a.havePend = false
				continue
			}
			if a.nextTick <= t {
				a.tick(a.nextTick)
				a.nextTick += a.cfg.ReplanEvery
				continue
			}
			return
		}
	}
}

// oracleReplan re-runs TA2 on the true factors, applied instantly and free.
func (a *arm) oracleReplan(t time.Duration) {
	costs := make([]float64, len(a.base))
	for j := range costs {
		f := a.trueFactor(j, t)
		if a.downUntil(j, t) > t {
			f = math.Max(f, a.cfg.OutageFactor)
		}
		costs[j] = a.base[j] * f
	}
	plan, err := alloc.TA2(alloc.Instance{M: a.cfg.M, Costs: costs})
	if err != nil {
		return
	}
	a.placement = placementOf(plan, a.hosts)
}

// tick is one adaptive control cycle at virtual time t.
func (a *arm) tick(t time.Duration) {
	// Feed the estimator what the straggler digest would have seen: each
	// participating device's winning-attempt latency at its true speed.
	for _, b := range a.placement {
		dev := a.devOf[b.Addr]
		if a.downUntil(dev, t) > t {
			continue // a down device wins no attempts
		}
		a.est.ObserveLatency(b.Addr, t, a.contribution(dev, b.Rows, t), b.Rows)
	}
	if a.havePend {
		return // one migration at a time
	}
	factors := a.est.Factors()
	urgent := false
	for _, b := range a.placement {
		if a.downUntil(a.devOf[b.Addr], t) > t {
			urgent = true
		}
	}
	if a.cfg.OutageAt >= 0 {
		oAddr := a.hosts[a.oDev].Addr
		if a.downUntil(a.oDev, t) > t && factors[oAddr] < a.cfg.OutageFactor {
			factors[oAddr] = a.cfg.OutageFactor
		}
	}
	bound := make(map[string]int, len(a.sent))
	for addr, blocks := range a.sent {
		bound[addr] = blocks[0]
	}
	d, err := a.planner.Decide(t, factors, a.placement, bound, urgent)
	a.replans++
	if err != nil || !d.Adopt {
		return
	}
	a.adopts++
	a.events = append(a.events, fmt.Sprintf("t=%.2fs %s", t.Seconds(), d.Reason))

	prof := a.cfg.Profile
	if d.Reshape {
		scheme, err := coding.New(a.cfg.M, d.R)
		if err != nil || scheme.Devices() != len(d.Target) {
			return
		}
		next := make([]BlockHost, len(d.Target))
		var push time.Duration
		for b, addr := range d.Target {
			rows := scheme.RowsOn(b)
			next[b] = BlockHost{Block: b, Addr: addr, Rows: rows}
			if p := prof.Latency + time.Duration(float64(rows*a.cfg.Cols)/prof.UplinkRate*float64(time.Second)); p > push {
				push = p
			}
		}
		a.pending, a.pendingAt, a.havePend = next, t+push, true
		a.moved += len(next)
		clear(a.sent) // fresh masking rows: a new epoch
		a.store(next)
		a.events = append(a.events, fmt.Sprintf("t=%.2fs reshape to r=%d over %d devices (ready %.2fs)", t.Seconds(), d.R, len(next), (t+push).Seconds()))
		return
	}
	next := append([]BlockHost(nil), a.placement...)
	var push time.Duration
	for _, mv := range d.Moves {
		next[mv.Block].Addr = mv.To
		a.store(next[mv.Block : mv.Block+1])
		rows := next[mv.Block].Rows
		// Rehost pushes run one after another in the controller.
		push += prof.Latency + time.Duration(float64(rows*a.cfg.Cols)/prof.UplinkRate*float64(time.Second))
		a.events = append(a.events, fmt.Sprintf("t=%.2fs rehost block %d %s → %s", t.Seconds(), mv.Block, mv.From, mv.To))
	}
	a.pending, a.pendingAt, a.havePend = next, t+push, true
	a.moved += len(d.Moves)
}

// run drives the arrival schedule through the arm and summarizes it.
func (a *arm) run(arrivals []time.Duration) ArmResult {
	servers := make(durHeap, a.cfg.Concurrency)
	heap.Init(&servers)
	var overall, steady []time.Duration
	for _, arrive := range arrivals {
		free := heap.Pop(&servers).(time.Duration)
		start := arrive
		if free > start {
			start = free
		}
		a.advance(start)
		finish := start + a.service(start)
		heap.Push(&servers, finish)
		lat := finish - arrive
		overall = append(overall, lat)
		if arrive >= a.cfg.MeasureFrom {
			steady = append(steady, lat)
		}
	}
	res := ArmResult{
		Name:         a.name,
		Requests:     len(arrivals),
		SteadyP50Ms:  msOf(quantileDur(steady, 0.50)),
		SteadyP95Ms:  msOf(quantileDur(steady, 0.95)),
		SteadyP99Ms:  msOf(quantileDur(steady, 0.99)),
		OverallP99Ms: msOf(quantileDur(overall, 0.99)),
		Replans:      a.replans,
		Adopts:       a.adopts,
		BlocksMoved:  a.moved,
	}
	for _, b := range a.placement {
		res.FinalBaseCost += float64(b.Rows) * a.base[a.devOf[b.Addr]]
		if b.Rows > res.FinalR {
			res.FinalR = b.Rows
		}
	}
	return res
}

// durHeap is a min-heap of server free times.
type durHeap []time.Duration

func (h durHeap) Len() int           { return len(h) }
func (h durHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h durHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *durHeap) Push(x any)        { *h = append(*h, x.(time.Duration)) }
func (h *durHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }
func msOf(d time.Duration) float64   { return float64(d.Nanoseconds()) / 1e6 }
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
