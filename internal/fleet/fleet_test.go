package fleet

import (
	"context"
	"errors"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/faultproxy"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/transport"
)

// testEnv is a replicated loopback fleet with a faultproxy.Proxy in front of
// every device, so tests can fail any replica on command while the device
// servers themselves stay honest.
type testEnv struct {
	f      field.Prime
	scheme *coding.Systematic[uint64]
	enc    *coding.Encoding[uint64]
	a      *matrix.Dense[uint64]
	x      []uint64
	want   []uint64
	reg    *obs.Registry

	// proxies[j][k] fronts replica k of block j; standbys[k] fronts standby k.
	proxies  [][]*faultproxy.Proxy
	standbys []*faultproxy.Proxy
	// servers are the honest devices behind the proxies.
	servers []*transport.DeviceServer[uint64]

	cfg Config
}

// newTestEnv deploys an 8×5 matrix over the r=4 scheme (3 coded blocks) with
// the given replication factor and standby count. Probing is off by default;
// tests that exercise health or repair turn it on via env.cfg.
func newTestEnv(t testing.TB, replicas, standbys int) *testEnv {
	t.Helper()
	env := &testEnv{reg: obs.New()}
	rng := rand.New(rand.NewPCG(42, 99))
	const m, l, r = 8, 5, 4
	scheme, err := coding.NewStructured(env.f, m, r)
	if err != nil {
		t.Fatal(err)
	}
	env.scheme = scheme
	env.a = matrix.New[uint64](m, l)
	for i := 0; i < m; i++ {
		for j := 0; j < l; j++ {
			env.a.Set(i, j, env.f.Rand(rng))
		}
	}
	env.enc, err = scheme.Encode(env.a, rng)
	if err != nil {
		t.Fatal(err)
	}
	env.x = make([]uint64, l)
	for j := range env.x {
		env.x[j] = env.f.Rand(rng)
	}
	env.want = env.mulVec(env.x)

	newProxied := func() *faultproxy.Proxy {
		srv, err := transport.NewDeviceServer[uint64](env.f, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		env.servers = append(env.servers, srv)
		p, err := faultproxy.New(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		return p
	}
	env.cfg = Config{
		Replicas:      make([][]string, scheme.Devices()),
		RPCTimeout:    2 * time.Second,
		HedgeAfter:    -1, // deterministic by default; hedge tests override
		ProbeInterval: -1, // probing off by default; health tests override
		Metrics:       env.reg,
	}
	env.proxies = make([][]*faultproxy.Proxy, scheme.Devices())
	for j := range env.proxies {
		for k := 0; k < replicas; k++ {
			p := newProxied()
			env.proxies[j] = append(env.proxies[j], p)
			env.cfg.Replicas[j] = append(env.cfg.Replicas[j], p.Addr())
		}
	}
	for k := 0; k < standbys; k++ {
		p := newProxied()
		env.standbys = append(env.standbys, p)
		env.cfg.Standbys = append(env.cfg.Standbys, p.Addr())
	}
	return env
}

func (e *testEnv) mulVec(x []uint64) []uint64 {
	out := make([]uint64, e.a.Rows())
	for i := range out {
		s := e.f.Zero()
		for j := 0; j < e.a.Cols(); j++ {
			s = e.f.Add(s, e.f.Mul(e.a.At(i, j), x[j]))
		}
		out[i] = s
	}
	return out
}

func (e *testEnv) serve(t testing.TB) *Session[uint64] {
	t.Helper()
	s, err := Serve[uint64](e.f, e.enc, e.cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// mulVec is the tests' stand-in for the engine's query layer, which owns
// decode in production: gather through the fleet, decode through the
// session's code.
func mulVec(s *Session[uint64], x []uint64) ([]uint64, error) {
	y, err := s.GatherContext(context.Background(), x)
	if err != nil {
		return nil, err
	}
	return s.Code().Decode(y)
}

// gatherBatch is GatherInto on a fresh (m+r)×n result.
func gatherBatch(s *Session[uint64], xm *matrix.Dense[uint64]) (*matrix.Dense[uint64], error) {
	y := matrix.New[uint64](s.Code().M()+s.Code().R(), xm.Cols())
	if err := s.GatherInto(context.Background(), xm, y); err != nil {
		return nil, err
	}
	return y, nil
}

// counterValue reads one counter series from the registry snapshot.
func counterValue(t *testing.T, reg *obs.Registry, name string, labels map[string]string) float64 {
	t.Helper()
	for _, fam := range reg.Snapshot().Metrics {
		if fam.Name != name {
			continue
		}
	series:
		for _, s := range fam.Series {
			for k, v := range labels {
				if s.Labels[k] != v {
					continue series
				}
			}
			return s.Value
		}
	}
	t.Fatalf("metric %s%v not found in registry", name, labels)
	return 0
}

func checkResult(t *testing.T, want, got []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("decoded result differs from A·x at row %d", i)
		}
	}
}

// TestFaultOneReplicaOfEachBlockDown is the headline availability scenario:
// two replicas per block, the first replica of every block failed. Every
// query must still return exactly A·x, by failing over inside the race, and
// the failovers must show up on the retries counter.
func TestFaultOneReplicaOfEachBlockDown(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	s := env.serve(t)
	for j := range env.proxies {
		env.proxies[j][0].SetMode(faultproxy.Drop)
	}
	got, err := mulVec(s, env.x)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, env.want, got)
	if v := counterValue(t, env.reg, obs.MetricFleetRetriesTotal, nil); v < float64(len(env.proxies)) {
		t.Fatalf("retries counter = %g after %d in-race failovers, want >= %d", v, len(env.proxies), len(env.proxies))
	}
	if v := counterValue(t, env.reg, obs.MetricFleetQueriesTotal, map[string]string{"kind": "vec"}); v != 1 {
		t.Fatalf("vec queries counter = %g, want 1", v)
	}

	// The batch path must survive the same fault pattern.
	const n = 3
	xm := matrix.New[uint64](env.a.Cols(), n)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < xm.Rows(); i++ {
		for j := 0; j < n; j++ {
			xm.Set(i, j, env.f.Rand(rng))
		}
	}
	gm, err := gatherBatch(s, xm)
	if err != nil {
		t.Fatal(err)
	}
	ym := matrix.New[uint64](s.Code().M(), n)
	if err := s.Code().DecodeInto(ym, gm); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < n; c++ {
		col := make([]uint64, xm.Rows())
		for i := range col {
			col[i] = xm.At(i, c)
		}
		want := env.mulVec(col)
		for i := range want {
			if ym.At(i, c) != want[i] {
				t.Fatalf("batch column %d differs from A·x at row %d", c, i)
			}
		}
	}
}

// TestFaultTruncatedResponseFailsOver: a replica that cuts the response off
// mid-message is a failure like any other — the race moves on.
func TestFaultTruncatedResponseFailsOver(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	s := env.serve(t)
	env.proxies[0][0].SetTruncate(10)
	env.proxies[0][0].SetMode(faultproxy.Truncate)
	got, err := mulVec(s, env.x)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, env.want, got)
}

// TestFaultAllReplicasDownTypedError: when every replica of one block is
// gone the query must fail with the typed sentinel, identify the block, and
// return well before the query deadline rather than hang.
func TestFaultAllReplicasDownTypedError(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	s := env.serve(t)
	for _, p := range env.proxies[1] {
		p.SetMode(faultproxy.Drop)
	}
	start := time.Now()
	_, err := mulVec(s, env.x)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrBlockUnavailable) {
		t.Fatalf("err = %v, want errors.Is ErrBlockUnavailable", err)
	}
	var be *BlockUnavailableError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *BlockUnavailableError", err)
	}
	if be.Block != 1 {
		t.Fatalf("failed block = %d, want 1", be.Block)
	}
	if be.Attempts != DefaultMaxRetries+1 {
		t.Fatalf("attempts = %d, want %d (initial round + %d retries)", be.Attempts, DefaultMaxRetries+1, DefaultMaxRetries)
	}
	if elapsed >= DefaultQueryTimeout {
		t.Fatalf("query took %v, must fail before the %v deadline", elapsed, DefaultQueryTimeout)
	}
	if v := counterValue(t, env.reg, obs.MetricFleetQueryErrorsTotal, map[string]string{"kind": "vec"}); v != 1 {
		t.Fatalf("vec query-errors counter = %g, want 1", v)
	}
}

// TestFaultBlackholeHedgedRequestWins: a replica that accepts and never
// answers must not stall the query for its full RPC timeout — the hedge
// fires and the second replica's answer is used.
func TestFaultBlackholeHedgedRequestWins(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	env.cfg.HedgeAfter = 10 * time.Millisecond
	env.cfg.RPCTimeout = 5 * time.Second
	s := env.serve(t)
	env.proxies[0][0].SetMode(faultproxy.Blackhole)
	start := time.Now()
	got, err := mulVec(s, env.x)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, env.want, got)
	if elapsed >= env.cfg.RPCTimeout {
		t.Fatalf("query took %v, the hedge should beat the %v RPC timeout", elapsed, env.cfg.RPCTimeout)
	}
	if v := counterValue(t, env.reg, obs.MetricFleetHedgesTotal, nil); v < 1 {
		t.Fatalf("hedges counter = %g, want >= 1", v)
	}
}

// TestFaultDelayedLeaderHedgeStillCorrect: a straggling (not failed) leader
// races its hedge; whoever wins, the decoded result is exact.
func TestFaultDelayedLeaderHedgeStillCorrect(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	env.cfg.HedgeAfter = 5 * time.Millisecond
	s := env.serve(t)
	env.proxies[0][0].SetDelay(60*time.Millisecond, 0)
	env.proxies[0][0].SetMode(faultproxy.Delay)
	for i := 0; i < 3; i++ {
		got, err := mulVec(s, env.x)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, env.want, got)
	}
}

// TestFaultProbeOpensBreakerAndStandbyRepairs is the self-repair path end to
// end: the prober notices a dead replica, its breaker opens, the block's
// coded rows are re-pushed to a warm standby, and queries keep decoding A·x
// against the promoted standby — no re-encode of the deployment.
func TestFaultProbeOpensBreakerAndStandbyRepairs(t *testing.T) {
	env := newTestEnv(t, 1, 1)
	env.cfg.ProbeInterval = 20 * time.Millisecond
	env.cfg.BreakerThreshold = 1
	env.cfg.BreakerCooldown = time.Minute // dead replica stays quarantined
	s := env.serve(t)
	env.proxies[0][0].SetMode(faultproxy.Drop)

	deadline := time.Now().Add(10 * time.Second)
	for s.ReplicaCount(0) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("standby was not promoted into block 0's replica set")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := s.Standbys(); n != 0 {
		t.Fatalf("standby pool has %d devices after promotion, want 0", n)
	}
	got, err := mulVec(s, env.x)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, env.want, got)
	if v := counterValue(t, env.reg, obs.MetricFleetRepairsTotal, map[string]string{"outcome": "ok"}); v < 1 {
		t.Fatalf("repairs counter = %g, want >= 1", v)
	}
	if st := s.devices[env.cfg.Replicas[0][0]].State(); st != BreakerOpen {
		t.Fatalf("dead replica breaker = %v, want open", st)
	}
}

// TestProbeKeepsIdleConnectionsAlive: the prober is the one liveness loop.
// Devices whose idle deadline (250 ms) is far shorter than the idle window
// must keep the session's pooled connections through it, because a probe
// finds each connection's contact older than ProbeInterval and pings it: no
// connection is renegotiated, no breaker opens, and every device was heard
// from recently.
func TestProbeKeepsIdleConnectionsAlive(t *testing.T) {
	env := newTestEnv(t, 1, 0)
	for j := range env.cfg.Replicas {
		srv, err := transport.NewDeviceServerOptions[uint64](env.f, "127.0.0.1:0", transport.Options{Timeout: 250 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		env.cfg.Replicas[j] = []string{srv.Addr()}
	}
	env.cfg.ProbeInterval = 50 * time.Millisecond
	s := env.serve(t)
	got, err := mulVec(s, env.x)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, env.want, got)

	time.Sleep(700 * time.Millisecond) // several device idle deadlines

	for _, group := range env.cfg.Replicas {
		addr := group[0]
		if st := s.devices[addr].State(); st != BreakerClosed {
			t.Errorf("device %s breaker = %v after the idle window, want closed", addr, st)
		}
		last, ok := s.link.LastContact(addr)
		if !ok {
			t.Errorf("device %s has no live connection after the idle window", addr)
		} else if age := time.Since(last); age > 300*time.Millisecond {
			t.Errorf("device %s last heard from %v ago, want under 300ms: the prober is not pinging", addr, age)
		}
	}
	if got, err = mulVec(s, env.x); err != nil {
		t.Fatalf("query after the idle window: %v", err)
	}
	checkResult(t, env.want, got)
	if n := counterValue(t, env.reg, obs.MetricTransportNegotiations, map[string]string{"outcome": "v4"}); n != float64(len(env.cfg.Replicas)) {
		t.Fatalf("v4 negotiations = %g, want %d: one per device, every connection surviving the idle window", n, len(env.cfg.Replicas))
	}
}

// TestFaultConcurrentQueriesSurviveKillAndRepair is the -race integration
// scenario: many goroutines stream queries through one Session while a
// replica is killed mid-stream and a standby is promoted in the background.
// Every single result must still equal A·x exactly.
func TestFaultConcurrentQueriesSurviveKillAndRepair(t *testing.T) {
	env := newTestEnv(t, 2, 1)
	env.cfg.ProbeInterval = 25 * time.Millisecond
	env.cfg.HedgeAfter = 0 // adaptive
	env.cfg.BreakerThreshold = 2
	env.cfg.BreakerCooldown = time.Minute
	s := env.serve(t)

	const workers, queries = 6, 12
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				got, err := mulVec(s, env.x)
				if err != nil {
					errs[w] = err
					return
				}
				for i := range got {
					if got[i] != env.want[i] {
						errs[w] = errors.New("decoded result differs from A·x")
						return
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the stream start, then kill a replica
	env.proxies[0][0].SetMode(faultproxy.Drop)
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	// The killed replica must have been noticed; with a standby available the
	// runtime should also have repaired block 0 back to strength.
	deadline := time.Now().Add(10 * time.Second)
	for s.ReplicaCount(0) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("block 0 was not repaired after the kill")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeValidation: malformed fleet topologies are rejected up front.
func TestServeValidation(t *testing.T) {
	env := newTestEnv(t, 1, 0)
	base := env.cfg

	cfg := base
	cfg.Replicas = cfg.Replicas[:len(cfg.Replicas)-1]
	if _, err := Serve[uint64](env.f, env.enc, cfg); err == nil {
		t.Fatal("Serve accepted fewer replica sets than coded blocks")
	}

	cfg = base
	cfg.Replicas = append([][]string{}, base.Replicas...)
	cfg.Replicas[1] = nil
	if _, err := Serve[uint64](env.f, env.enc, cfg); err == nil {
		t.Fatal("Serve accepted an empty replica set")
	}

	cfg = base
	cfg.Replicas = append([][]string{}, base.Replicas...)
	cfg.Replicas[1] = []string{base.Replicas[0][0]}
	if _, err := Serve[uint64](env.f, env.enc, cfg); err == nil {
		t.Fatal("Serve accepted one address hosting two blocks")
	}

	cfg = base
	cfg.Standbys = []string{base.Replicas[0][0]}
	if _, err := Serve[uint64](env.f, env.enc, cfg); err == nil {
		t.Fatal("Serve accepted a standby that already hosts a block")
	}

	cfg = base
	cfg.Replicas = append([][]string{}, base.Replicas...)
	cfg.Replicas[2] = []string{"127.0.0.1:1"} // nothing listens there
	if _, err := Serve[uint64](env.f, env.enc, cfg); err == nil {
		t.Fatal("Serve accepted a fleet it could not provision")
	}

	// Negative durations and thresholds would fail or mistime every query
	// and open healthy devices' breakers for it: Serve refuses them, naming
	// the field. Negative HedgeAfter and ProbeInterval keep their
	// documented meanings.
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"RPCTimeout", func(c *Config) { c.RPCTimeout = -time.Second }},
		{"BreakerCooldown", func(c *Config) { c.BreakerCooldown = -time.Minute }},
		{"BreakerThreshold", func(c *Config) { c.BreakerThreshold = -3 }},
	} {
		cfg = base
		tc.set(&cfg)
		_, err := Serve[uint64](env.f, env.enc, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Serve with a negative %s: err = %v, want an error naming the field", tc.field, err)
		}
	}
	cfg = base
	cfg.HedgeAfter, cfg.ProbeInterval = -1, -1
	neg, err := Serve[uint64](env.f, env.enc, cfg)
	if err != nil {
		t.Fatalf("Serve refused the documented negative HedgeAfter/ProbeInterval: %v", err)
	}
	got, err := mulVec(neg, env.x)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, env.want, got)
	_ = neg.Close()

	s := env.serve(t)
	if _, err := mulVec(s, make([]uint64, 99)); err == nil {
		t.Fatal("MulVec accepted a wrong-length input")
	}
	// A zero-column batch is refused before any replica sees it: a device's
	// refusal would count against its breaker.
	if _, err := gatherBatch(s, matrix.New[uint64](env.a.Cols(), 0)); err == nil {
		t.Fatal("GatherInto accepted a zero-column input")
	}
	if v := counterValue(t, env.reg, obs.MetricFleetQueriesTotal, map[string]string{"kind": "mat"}); v != 0 {
		t.Fatalf("mat queries counter = %g after a rejected input, want 0", v)
	}
}

// TestBreakerLifecycle walks one device breaker through
// closed → open → half-open → closed and the half-open failure re-open.
func TestBreakerLifecycle(t *testing.T) {
	reg := obs.New()
	d := &device{addr: "test", gauge: reg.Gauge(obs.MetricFleetBreakerState, breakerHelp, obs.L("device", "test"))}
	const threshold = 3
	d.recordFailure(threshold, time.Now())
	d.recordFailure(threshold, time.Now())
	if got := d.State(); got != BreakerClosed {
		t.Fatalf("state after 2/3 failures = %v, want closed", got)
	}
	d.recordFailure(threshold, time.Now())
	if got := d.State(); got != BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open", threshold, got)
	}
	now := time.Now()
	if d.admissible(now, time.Minute) {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	if !d.admissible(now.Add(2*time.Minute), time.Minute) {
		t.Fatal("open breaker refused a trial after the cooldown")
	}
	if got := d.State(); got != BreakerHalfOpen {
		t.Fatalf("state after cooldown trial = %v, want half-open", got)
	}
	d.recordFailure(threshold, time.Now())
	if got := d.State(); got != BreakerOpen {
		t.Fatalf("state after failed half-open trial = %v, want open (single strike)", got)
	}
	d.admissible(now.Add(10*time.Minute), time.Minute)
	d.recordSuccess()
	if got := d.State(); got != BreakerClosed {
		t.Fatalf("state after successful trial = %v, want closed", got)
	}
	if v := counterValue(t, reg, obs.MetricFleetBreakerState, map[string]string{"device": "test"}); v != float64(BreakerClosed) {
		t.Fatalf("breaker gauge = %g, want %d", v, BreakerClosed)
	}
}

// TestCandidatesOrder pins the routing order races and failovers rely on:
// healthy replicas first, then admissible trials (half-open, or open past
// the cooldown), each group in replica order; breakers still cooling down
// are left out.
func TestCandidatesOrder(t *testing.T) {
	reg := obs.New()
	now := time.Now()
	const cooldown = time.Minute
	// One letter per replica: c closed, h half-open, o open inside the
	// cooldown, x open past it (expired).
	mk := func(i int, kind byte) *device {
		addr := strconv.Itoa(i)
		d := &device{addr: addr, gauge: reg.Gauge(obs.MetricFleetBreakerState, breakerHelp, obs.L("device", addr))}
		switch kind {
		case 'h':
			d.state = BreakerHalfOpen
		case 'o':
			d.state, d.openedAt = BreakerOpen, now
		case 'x':
			d.state, d.openedAt = BreakerOpen, now.Add(-2*cooldown)
		}
		return d
	}
	for _, tc := range []struct {
		replicas string
		want     []string
	}{
		{"", nil},
		{"c", []string{"0"}},
		{"o", nil},
		{"ccc", []string{"0", "1", "2"}},
		{"hc", []string{"1", "0"}},
		{"xhc", []string{"2", "0", "1"}},
		{"hcoxc", []string{"1", "4", "0", "3"}},
		{"chxcohc", []string{"0", "3", "6", "1", "2", "5"}},
		{"oxoh", []string{"1", "3"}},
	} {
		b := &blockState[uint64]{}
		for i := range tc.replicas {
			b.replicas = append(b.replicas, mk(i, tc.replicas[i]))
		}
		snapshot := append([]*device(nil), b.replicas...)
		var got []string
		cands, healthy := b.candidates(now, cooldown, make([]*device, 0, 2))
		for _, d := range cands {
			got = append(got, d.addr)
		}
		if want := strings.Count(tc.replicas, "c"); healthy != want {
			t.Errorf("replicas %q: %d healthy, want %d", tc.replicas, healthy, want)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("replicas %q: candidates %v, want %v", tc.replicas, got, tc.want)
		}
		if !slices.Equal(b.replicas, snapshot) {
			t.Errorf("replicas %q: candidates reordered the block's replica set", tc.replicas)
		}
		for i, d := range b.replicas {
			if tc.replicas[i] == 'x' && d.State() != BreakerHalfOpen {
				t.Errorf("replicas %q: expired breaker %d is %v, want half-open after being offered a trial", tc.replicas, i, d.State())
			}
		}
	}
}

// TestSingleCandidateRaceNeverHedges: with one replica per block there is
// nobody to hedge to, so a leader slower than the hedge delay must still win
// with the hedges counter untouched.
func TestSingleCandidateRaceNeverHedges(t *testing.T) {
	env := newTestEnv(t, 1, 0)
	env.cfg.HedgeAfter = time.Millisecond
	s := env.serve(t)
	for _, ps := range env.proxies {
		ps[0].SetDelay(20*time.Millisecond, 0)
		ps[0].SetMode(faultproxy.Delay)
	}
	got, err := mulVec(s, env.x)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, env.want, got)
	if v := counterValue(t, env.reg, obs.MetricFleetHedgesTotal, nil); v != 0 {
		t.Fatalf("hedges counter = %g, want 0 with a single candidate", v)
	}
}

// rttLink is a link that knows only its devices' last round trips.
type rttLink struct {
	link[uint64]
	rtt map[string]time.Duration
}

func (l rttLink) LastRTT(addr string) (time.Duration, bool) {
	d, ok := l.rtt[addr]
	return d, ok
}

// win files n winning attempts of latency lat on d's straggler record.
func win(d *device, n int, lat time.Duration) {
	for range n {
		d.recordAttempt(attemptWin, false, lat)
	}
}

// TestHedgeDelayPolicy covers the three HedgeAfter regimes: fixed, disabled,
// and adaptive — the leader's cold prior (twice its last round trip, or
// RPCTimeout with none) until it has won MinAdaptiveSamples races, then its
// own p95, clamped to [1ms, RPCTimeout] either way.
func TestHedgeDelayPolicy(t *testing.T) {
	s := &Session[uint64]{link: rttLink{rtt: map[string]time.Duration{"a": 3 * time.Millisecond, "near": 100 * time.Microsecond}}}
	s.cfg = Config{HedgeAfter: 7 * time.Millisecond, RPCTimeout: time.Second}
	a, unmeasured, near := &device{addr: "a"}, &device{addr: "b"}, &device{addr: "near"}
	delay := func(d *device) (time.Duration, bool) { return s.hedgeDelay(s.expected(d)) }
	if got, ok := delay(a); !ok || got != 7*time.Millisecond {
		t.Fatalf("fixed hedge delay = %v, %v, want 7ms", got, ok)
	}
	s.cfg.HedgeAfter = -1
	if got, ok := delay(a); ok {
		t.Fatalf("disabled hedge delay = %v, want hedging off", got)
	}
	s.cfg.HedgeAfter = 0
	for _, tc := range []struct {
		d    *device
		want time.Duration
	}{{a, 6 * time.Millisecond}, {unmeasured, s.cfg.RPCTimeout}, {near, time.Millisecond}} {
		if got, ok := delay(tc.d); !ok || got != tc.want {
			t.Fatalf("cold adaptive delay for %s = %v, %v, want %v", tc.d.addr, got, ok, tc.want)
		}
	}
	win(a, MinAdaptiveSamples-1, 20*time.Millisecond)
	if got, ok := delay(a); !ok || got != 6*time.Millisecond {
		t.Fatalf("adaptive delay below warmup = %v, %v, want the 6ms prior", got, ok)
	}
	win(a, 1, 20*time.Millisecond)
	if got, ok := delay(a); !ok || got != 20*time.Millisecond {
		t.Fatalf("adaptive delay = %v, %v, want the 20ms p95", got, ok)
	}
	win(a, latencyWindow, time.Hour) // absurd latencies clamp to the RPC timeout
	if got, ok := delay(a); !ok || got != s.cfg.RPCTimeout {
		t.Fatalf("clamped adaptive delay = %v, %v, want %v", got, ok, s.cfg.RPCTimeout)
	}
}

// TestLeaderRank pins how a block's healthy replicas are ordered: by
// expected completion (p50), with the provisioning-order leader demoted
// only once its own measured p50 exceeds a peer's p95 — a warm or cold
// peer's — so a prior never demotes a leader and balanced replicas never
// trade the lead.
func TestLeaderRank(t *testing.T) {
	const ms = time.Millisecond
	// wins returns k winning latencies of d.
	wins := func(k int, d time.Duration) []time.Duration { return slices.Repeat([]time.Duration{d}, k) }
	type rep struct {
		lats []time.Duration // its wins, in order
		rtt  time.Duration   // 0: none measured
	}
	for _, tc := range []struct {
		name string
		reps []rep
		want string // the ranked order, by replica index
	}{
		{"cold replicas keep provisioning order", []rep{{nil, 9 * ms}, {nil, ms}}, "01"},
		{"a cold leader is not demoted by a warm peer", []rep{{nil, 9 * ms}, {wins(20, ms), 0}}, "01"},
		{"a slow warm leader yields to a near cold peer", []rep{{wins(20, 20*ms), 0}, {nil, 100 * time.Microsecond}}, "10"},
		{"a slow warm leader yields to a faster warm peer", []rep{{wins(20, 5*ms), 0}, {wins(20, 2*ms), 0}}, "10"},
		{"a leader within a faster peer's p95 keeps the lead", []rep{{wins(20, 2*ms), 0}, {append(wins(18, 1900*time.Microsecond), wins(2, 3*ms)...), 0}}, "01"},
		{"the tail is ordered by p50", []rep{{wins(20, ms), 0}, {wins(20, 9*ms), 0}, {wins(20, 3*ms), 0}, {nil, ms}}, "0321"},
		{"a demoted leader takes its place by p50", []rep{{wins(20, 9*ms), 0}, {wins(20, 3*ms), 0}, {wins(20, 12*ms), 0}}, "102"},
	} {
		l := rttLink{rtt: map[string]time.Duration{}}
		s := &Session[uint64]{link: l, cfg: Config{RPCTimeout: time.Second}}
		var ds []*device
		for i, r := range tc.reps {
			d := &device{addr: strconv.Itoa(i)}
			for _, lat := range r.lats {
				win(d, 1, lat)
			}
			if r.rtt > 0 {
				l.rtt[d.addr] = r.rtt
			}
			ds = append(ds, d)
		}
		lead := s.rank(ds)
		var got string
		for _, d := range ds {
			got += d.addr
		}
		if got != tc.want {
			t.Errorf("%s: ranked %s, want %s", tc.name, got, tc.want)
		}
		if want := s.expected(ds[0]); lead != want {
			t.Errorf("%s: rank returned %+v, want the new leader's %+v", tc.name, lead, want)
		}
	}
}
