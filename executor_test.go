package scec_test

import (
	"encoding/json"
	"errors"
	"math/rand/v2"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/faultproxy"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/transport"
)

// fleetHarness serves deployments over faultproxy.Proxy-fronted loopback
// devices, so a test can fail chosen replicas mid-session.
type fleetHarness[E comparable] struct {
	replicas int
	proxies  [][]*faultproxy.Proxy // [block][replica] of the last fleet served
}

// serve re-binds dep onto a fresh deterministic fleet: one replica set of
// proxied loopback devices per coded block, no hedging, no probing. The
// devices and the handle close with t.
func (h *fleetHarness[E]) serve(t *testing.T, dep *scec.Deployment[E], opts ...scec.DeployOption[E]) (*scec.Served[E], error) {
	t.Helper()
	cfg := scec.FleetConfig{
		Replicas:      make([][]string, dep.Devices()),
		RPCTimeout:    2 * time.Second,
		HedgeAfter:    -1, // deterministic failover, no speculation
		ProbeInterval: -1, // no background probing
		Metrics:       obs.New(),
	}
	h.proxies = make([][]*faultproxy.Proxy, dep.Devices())
	for j := range cfg.Replicas {
		for range h.replicas {
			srv, err := transport.NewDeviceServer(dep.F, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			p, err := faultproxy.New(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = p.Close() })
			h.proxies[j] = append(h.proxies[j], p)
			cfg.Replicas[j] = append(cfg.Replicas[j], p.Addr())
		}
	}
	s, err := scec.Serve(dep, cfg, opts...)
	if s != nil {
		t.Cleanup(func() { _ = s.Close() })
	}
	return s, err
}

// failFirstReplicas drops the first replica of every block.
func (h *fleetHarness[E]) failFirstReplicas() {
	for _, replicas := range h.proxies {
		replicas[0].SetMode(faultproxy.Drop)
	}
}

// backendsAgree is the differential behind the one bind: the same inputs,
// deployed from the same seed at collusion threshold tc (the Eq. (8) code at
// tc = 1, WithCollusion(tc) above), encode identical coded blocks and answer
// bit-identically — and equal to the plaintext product — on the local
// kernels, under WithSimulator, and re-bound through Serve onto a replicated
// TCP fleet, also after the first replica of every block is killed
// mid-session.
func backendsAgree[E comparable](t *testing.T, f scec.Field[E], tc int) {
	const m, l = 18, 6
	costs := []float64{1.4, 0.8, 2.1, 1.0, 3.2, 0.9, 1.7, 2.6, 1.2, 1.9, 2.3, 0.95, 3.0, 1.6, 2.8, 1.05, 2.2, 1.8, 0.85, 2.9, 1.35}
	a := scec.RandomMatrix(f, rand.New(rand.NewPCG(3, 5)), m, l)
	x := scec.RandomVector(f, rand.New(rand.NewPCG(7, 9)), l)
	want := scec.MulVec(f, a, x)
	var planned []scec.DeployOption[E]
	if tc > 1 {
		planned = append(planned, scec.WithCollusion[E](tc))
	}
	deploy := func(t *testing.T, opts ...scec.DeployOption[E]) *scec.Deployment[E] {
		t.Helper()
		// Same seed stream per backend: identical plan, coding, and random
		// rows, so answers must be bit-identical.
		dep, err := scec.Deploy(f, a, costs, rand.New(rand.NewPCG(41, 97)), append(slices.Clone(planned), opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = dep.Close() })
		return dep
	}

	harness := &fleetHarness[E]{replicas: 2}
	backends := []struct {
		name string
		bind func(t *testing.T) *scec.Deployment[E]
	}{
		{"local", func(t *testing.T) *scec.Deployment[E] { return deploy(t) }},
		{"sim", func(t *testing.T) *scec.Deployment[E] {
			return deploy(t, scec.WithSimulator[E](scec.SimExecutorConfig{Metrics: obs.New()}))
		}},
		{"fleet", func(t *testing.T) *scec.Deployment[E] {
			s, err := harness.serve(t, deploy(t))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	var reference *scec.Deployment[E]
	var answer []E
	for _, tb := range backends {
		t.Run(tb.name, func(t *testing.T) {
			dep := tb.bind(t)
			if got := dep.Backend(); got != tb.name {
				t.Fatalf("Backend() = %q, want %q", got, tb.name)
			}
			if dep.Code.T() != tc {
				t.Fatalf("deployed code %q with t = %d, want t = %d", dep.Code.Name(), dep.Code.T(), tc)
			}
			if tc > 1 && dep.Plan.Algorithm != "TAt" {
				t.Fatalf("plan algorithm %q, want TAt", dep.Plan.Algorithm)
			}
			for j, leak := range dep.Audit() {
				if leak != 0 {
					t.Fatalf("device %d leaks %d dimensions", j, leak)
				}
			}
			got, err := dep.MulVec(x)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if !f.Equal(got[i], want[i]) {
					t.Fatalf("entry %d: decoded %v, plaintext %v", i, got[i], want[i])
				}
			}
			if reference == nil {
				reference, answer = dep, got
			}
			for j, block := range dep.Encoding.Blocks {
				if !scec.MatrixEqual(f, block, reference.Encoding.Blocks[j]) {
					t.Fatalf("same seed encoded a different coded block %d", j)
				}
			}
			for i := range got {
				if got[i] != answer[i] {
					t.Fatalf("entry %d: backend %s decoded %v, local decoded %v", i, tb.name, got[i], answer[i])
				}
			}
			if tb.name == "fleet" {
				// Kill the first replica of every block; failover must keep
				// the decode exact.
				harness.failFirstReplicas()
				again, err := dep.MulVec(x)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(again, answer) {
					t.Fatalf("answer changed after replica loss: %v, want %v", again, answer)
				}
			}
		})
	}
}

// TestDeployBackendsAgree runs the differential at t = 1 over F_{2^61-1}.
func TestDeployBackendsAgree(t *testing.T) {
	backendsAgree(t, scec.PrimeField(), 1)
}

// TestDeployBackendsAgreeGF256 runs the differential at t = 1 over GF(2^8).
func TestDeployBackendsAgreeGF256(t *testing.T) {
	backendsAgree(t, scec.GF256Field(), 1)
}

// TestQuantizedOverFleetSurvivesFaults: a quantized deployment reaches a
// fleet by re-binding its exact deployment through Serve, and serves float
// queries there with a dead replica per block.
func TestQuantizedOverFleetSurvivesFaults(t *testing.T) {
	t.Run("monolithic", quantizedOverFleetSurvivesFaults)
}

func quantizedOverFleetSurvivesFaults(t *testing.T) {
	const m, l = 12, 6
	rng := rand.New(rand.NewPCG(3, 77))
	a := scec.NewMatrix[float64](m, l)
	for i := 0; i < m; i++ {
		for j := 0; j < l; j++ {
			a.Set(i, j, float64(rng.IntN(256)-128)/8)
		}
	}
	costs := []float64{1.2, 0.9, 1.7}
	qd, err := scec.DeployQuantized(a, 12, 16, costs, rng)
	if err != nil {
		t.Fatal(err)
	}
	local := qd.Deployment
	h := &fleetHarness[uint64]{replicas: 2}
	if qd.Deployment, err = h.serve(t, local); err != nil {
		t.Fatal(err)
	}
	if err := local.Close(); err != nil {
		t.Fatal(err)
	}
	if qd.Backend() != "fleet" || qd.Session() == nil || qd.Devices() != local.Devices() {
		t.Fatalf("re-bound quantized deployment: backend %q, session %v, %d devices (want fleet, a session, %d)",
			qd.Backend(), qd.Session(), qd.Devices(), local.Devices())
	}
	for _, leak := range qd.Audit() {
		if leak != 0 {
			t.Fatal("quantized deployment leaks")
		}
	}

	x := make([]float64, l)
	for j := range x {
		x[j] = float64(rng.IntN(256)-128) / 16
	}
	want := scec.MulVec(scec.RealField(0), a, x)
	check := func() {
		t.Helper()
		got, err := qd.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if d := got[i] - want[i]; d > 1e-3 || d < -1e-3 {
				t.Fatalf("entry %d: %g, want %g", i, got[i], want[i])
			}
		}
	}
	check()
	h.failFirstReplicas()
	check()

	// Batch path over the faulted fleet.
	xm := scec.NewMatrix[float64](l, 2)
	for i := 0; i < l; i++ {
		for j := 0; j < 2; j++ {
			xm.Set(i, j, float64(rng.IntN(128)-64)/16)
		}
	}
	gotM, err := qd.MulMat(xm)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		col := make([]float64, l)
		for i := 0; i < l; i++ {
			col[i] = xm.At(i, j)
		}
		wantCol := scec.MulVec(scec.RealField(0), a, col)
		for i := range wantCol {
			if d := gotM.At(i, j) - wantCol[i]; d > 1e-3 || d < -1e-3 {
				t.Fatalf("batch entry (%d,%d): %g, want %g", i, j, gotM.At(i, j), wantCol[i])
			}
		}
	}
}

// TestChunkedDeployDeterministic: a deploy encodes once, monolithically,
// from the caller's RNG, so the same seed reproduces identical deployments
// (same coded blocks, same query answers) run after run.
func TestChunkedDeployDeterministic(t *testing.T) {
	f := scec.PrimeField()
	const m, l = 18, 9
	costs := []float64{1.4, 0.8, 2.1, 1.3}
	build := func() *scec.Deployment[uint64] {
		rng := rand.New(rand.NewPCG(101, 202))
		a := scec.RandomMatrix(f, rng, m, l)
		dep, err := scec.Deploy(f, a, costs, rng)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = dep.Close() })
		return dep
	}
	d1, d2 := build(), build()
	x := scec.RandomVector(f, rand.New(rand.NewPCG(9, 9)), l)
	y1, err := d1.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := d2.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("same seed produced diverging deployments")
		}
	}
	for j, block := range d1.Encoding.Blocks {
		if !scec.MatrixEqual(f, block, d2.Encoding.Blocks[j]) {
			t.Fatalf("same seed produced diverging coded block %d", j)
		}
	}
}

// TestDeployCoalescing: concurrent MulVec callers through a coalescing
// deployment all get exact answers and at least one merged round happens.
func TestDeployCoalescing(t *testing.T) {
	f := scec.PrimeField()
	const m, l, callers = 20, 6, 12
	costs := []float64{1.5, 0.7, 2.2}
	rng := rand.New(rand.NewPCG(44, 11))
	a := scec.RandomMatrix(f, rng, m, l)
	reg := obs.New()
	dep, err := scec.Deploy(f, a, costs, rng,
		scec.WithCoalescing[uint64](100*time.Millisecond, 6),
		scec.WithEngineMetrics[uint64](reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dep.Close() })

	inputs := make([][]uint64, callers)
	want := make([][]uint64, callers)
	for i := range inputs {
		inputs[i] = scec.RandomVector(f, rng, l)
		want[i] = scec.MulVec(f, a, inputs[i])
	}
	got := make([][]uint64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = dep.MulVec(inputs[i])
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for p := range got[i] {
			if got[i][p] != want[i][p] {
				t.Fatalf("caller %d diverges at %d", i, p)
			}
		}
	}
	h := reg.Histogram(obs.MetricEngineCoalescedBatchSize, "x",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128}, obs.L("backend", "local"))
	if h.Sum() != callers {
		t.Fatalf("histogram served %g callers, want %d", h.Sum(), callers)
	}
	if h.Count() >= callers {
		t.Fatalf("%d rounds for %d callers: nothing coalesced", h.Count(), callers)
	}
}

// TestServeCoalescing: the fleet serving facade accepts engine options and
// rejects WithSimulator.
func TestServeCoalescing(t *testing.T) {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(23, 29))
	a := scec.RandomMatrix(f, rng, 16, 5)
	costs := []float64{1.1, 2.5, 0.9}
	dep, err := scec.Deploy(f, a, costs, rng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dep.Close() })
	cfg := scec.FleetConfig{
		Replicas:      make([][]string, dep.Devices()),
		ProbeInterval: -1,
		Metrics:       obs.New(),
	}
	for j := range cfg.Replicas {
		srv, err := transport.NewDeviceServer(f, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		cfg.Replicas[j] = []string{srv.Addr()}
	}
	if _, err := scec.Serve(dep, cfg, scec.WithSimulator[uint64](scec.SimExecutorConfig{})); err == nil {
		t.Fatal("Serve accepted WithSimulator")
	}
	reg := obs.New()
	s, err := scec.Serve(dep, cfg,
		scec.WithCoalescing[uint64](50*time.Millisecond, 4),
		scec.WithEngineMetrics[uint64](reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	const callers = 8
	x := scec.RandomVector(f, rng, 5)
	want := scec.MulVec(f, a, x)
	errs := make([]error, callers)
	got := make([][]uint64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = s.MulVec(x)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for p := range got[i] {
			if got[i][p] != want[p] {
				t.Fatal("coalesced fleet query decoded the wrong result")
			}
		}
	}
	h := reg.Histogram(obs.MetricEngineCoalescedBatchSize, "x",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128}, obs.L("backend", "fleet"))
	if h.Sum() != callers {
		t.Fatalf("histogram served %g callers, want %d", h.Sum(), callers)
	}
}

// TestGroupCommitOnlyOnFleet: fleet-served deployments group-commit by
// default, and the in-process backends stay uncoalesced unless
// WithCoalescing asks. After 16 concurrent callers, /debug/engine on Local
// and Sim carries no coalescing block and counts no batch dispatch; Serve's
// block reports group commit (windowNs 0) at the default bound, and
// WithCoalescing(0, 4) turns group commit on for Local at bound 4.
func TestGroupCommitOnlyOnFleet(t *testing.T) {
	f := scec.PrimeField()
	// Each engine counts its dispatches in a registry of its own.
	local, l := deployBackend(t, scec.WithEngineMetrics[uint64](obs.New()))
	sim, _ := deployBackend(t, scec.WithEngineMetrics[uint64](obs.New()),
		scec.WithSimulator[uint64](scec.SimExecutorConfig{Metrics: obs.New()}))
	localGC, _ := deployBackend(t, scec.WithEngineMetrics[uint64](obs.New()), scec.WithCoalescing[uint64](0, 4))
	fleetDep, _ := deployBackend(t)
	served := serveLoopback(t, fleetDep, scec.FleetConfig{Metrics: obs.New()})
	x := scec.RandomVector(f, rand.New(rand.NewPCG(8, 80)), l)
	want, err := local.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		dep      *scec.Deployment[uint64]
		maxBatch int // 0: uncoalesced
	}{
		{"local", local, 0},
		{"sim", sim, 0},
		{"local WithCoalescing(0, 4)", localGC, 4},
		{"served", served, 16},
	} {
		const callers = 16
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				y, err := tc.dep.MulVec(x)
				if err == nil && !slices.Equal(y, want) {
					err = errors.New("answer differs from A·x")
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rec := httptest.NewRecorder()
		tc.dep.EngineDebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/engine", nil))
		var info struct {
			DispatchMat int64 `json:"dispatchMat"`
			Coalescing  *struct {
				WindowNs int64 `json:"windowNs"`
				MaxBatch int   `json:"maxBatch"`
			} `json:"coalescing"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatalf("%s: /debug/engine: %v", tc.name, err)
		}
		switch co := info.Coalescing; {
		case tc.maxBatch == 0 && (co != nil || info.DispatchMat != 0):
			t.Errorf("%s: coalescing %+v and %d batch dispatches, want neither", tc.name, co, info.DispatchMat)
		case tc.maxBatch > 0 && (co == nil || co.WindowNs != 0 || co.MaxBatch != tc.maxBatch):
			t.Errorf("%s: coalescing %+v, want group commit (windowNs 0) at maxBatch %d", tc.name, co, tc.maxBatch)
		}
	}
}

// TestProvisionedParity: every way of deploying exposes the plan cost, fleet
// size, security audit, and engine lifecycle the same way, with sound audits.
func TestProvisionedParity(t *testing.T) {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(71, 3))
	costs := []float64{1.5, 0.7, 2.2}
	a := scec.RandomMatrix(f, rng, 12, 6)
	dep, err := scec.Deploy(f, a, costs, rng)
	if err != nil {
		t.Fatal(err)
	}
	af := scec.NewMatrix[float64](8, 4)
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			af.Set(i, j, float64(i+j))
		}
	}
	qd, err := scec.DeployQuantized(af, 10, 8, costs, rng)
	if err != nil {
		t.Fatal(err)
	}
	type provisioned interface {
		Cost() float64
		Devices() int
		Audit() []int
		Close() error
	}
	for name, p := range map[string]provisioned{"deploy": dep, "quantized": qd} {
		if p.Devices() <= 0 {
			t.Fatalf("%s: no devices", name)
		}
		if p.Cost() <= 0 {
			t.Fatalf("%s: non-positive cost", name)
		}
		for _, leak := range p.Audit() {
			if leak != 0 {
				t.Fatalf("%s: leaks", name)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
	}
}

// serveLoopback serves dep over one fresh loopback device per block, with
// probing off and cfg's remaining fields as given.
func serveLoopback(t *testing.T, dep *scec.Deployment[uint64], cfg scec.FleetConfig, opts ...scec.DeployOption[uint64]) *scec.Served[uint64] {
	t.Helper()
	cfg.Replicas = make([][]string, dep.Devices())
	cfg.ProbeInterval = -1
	for j := range cfg.Replicas {
		srv, err := transport.NewDeviceServer(dep.F, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		cfg.Replicas[j] = []string{srv.Addr()}
	}
	s, err := scec.Serve(dep, cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// familyTotal sums one metric family's series values in reg; found is false
// when the family was never registered there.
func familyTotal(reg *obs.Registry, name string) (total float64, found bool) {
	for _, fam := range reg.Snapshot().Metrics {
		if fam.Name == name {
			found = true
			for _, s := range fam.Series {
				total += s.Value
			}
		}
	}
	return total, found
}

// TestZeroColumnBatchRejectedBeforeDispatch: an l×0 MulMat is refused by the
// engine with the same error on every backend and dispatches nothing. On the
// fleet that matters beyond the one call: a device refuses an empty batch,
// the refusals used to count against every replica's breaker, and the next
// valid query then failed with "every breaker open" for the cooldown.
func TestZeroColumnBatchRejectedBeforeDispatch(t *testing.T) {
	f := scec.PrimeField()
	local, l := deployBackend(t)
	sim, _ := deployBackend(t, scec.WithSimulator[uint64](scec.SimExecutorConfig{Metrics: obs.New()}))
	reg := obs.New()
	fleetDep, _ := deployBackend(t)
	served := serveLoopback(t, fleetDep, scec.FleetConfig{Metrics: reg})

	rng := rand.New(rand.NewPCG(6, 60))
	x := scec.RandomVector(f, rng, l)
	if _, err := served.MulVec(x); err != nil { // dial, so the RPC series exist
		t.Fatal(err)
	}
	rpcsBefore, ok := familyTotal(reg, obs.MetricRPCClientRequests)
	if !ok || rpcsBefore == 0 {
		t.Fatalf("no %s recorded by the warm-up query", obs.MetricRPCClientRequests)
	}

	empty := scec.NewMatrix[uint64](l, 0)
	const want = "scec: engine: input matrix has 0 columns, want at least 1"
	backends := []struct {
		name string
		q    queryable
	}{{"local", local}, {"sim", sim}, {"fleet", served}}
	for _, b := range backends {
		y, err := b.q.MulMatContext(t.Context(), empty)
		if err == nil || err.Error() != want {
			t.Errorf("%s: MulMat(l×0) = %v, %v; want error %q", b.name, y, err, want)
		}
	}
	if rpcs, _ := familyTotal(reg, obs.MetricRPCClientRequests); rpcs != rpcsBefore {
		t.Errorf("rejected batch sent %g RPCs, want 0", rpcs-rpcsBefore)
	}
	for _, b := range backends {
		if _, err := b.q.MulVecContext(t.Context(), x); err != nil {
			t.Errorf("%s: valid query after the rejected batch: %v", b.name, err)
		}
	}
}

// TestServeSharesRegistry: like the tracer, one registry given to a fleet
// bind — on the fleet config or as the engine option — receives both
// layers' series, instead of the other layer's falling through to
// obs.Default().
func TestServeSharesRegistry(t *testing.T) {
	for _, via := range []string{"FleetConfig.Metrics", "WithEngineMetrics"} {
		reg := obs.New()
		dep, l := deployBackend(t)
		var s *scec.Served[uint64]
		if via == "WithEngineMetrics" {
			s = serveLoopback(t, dep, scec.FleetConfig{}, scec.WithEngineMetrics[uint64](reg))
		} else {
			s = serveLoopback(t, dep, scec.FleetConfig{Metrics: reg})
		}
		if _, err := s.MulVec(make([]uint64, l)); err != nil {
			t.Fatalf("via %s: %v", via, err)
		}
		for _, fam := range []string{obs.MetricEngineDispatchTotal, obs.MetricFleetQueriesTotal, obs.MetricRPCClientRequests} {
			if n, _ := familyTotal(reg, fam); n < 1 {
				t.Errorf("via %s: %s = %g in the given registry, want >= 1", via, fam, n)
			}
		}
	}
}

// TestOptionApplicability is the accept/reject table of the one bind path:
// every DeployOption against every entry point. An option that cannot take
// effect where it is given fails with ErrOptionNotApplicable naming it —
// Serve used to accept and ignore the planning options — and everything
// else deploys and answers a query.
func TestOptionApplicability(t *testing.T) {
	f := scec.PrimeField()
	const m, l = 18, 6
	costs := []float64{1.4, 0.8, 2.1, 1.0, 3.2, 0.9, 1.7, 2.6, 1.2, 1.9, 2.3, 0.95, 3.0, 1.6, 2.8, 1.05, 2.2, 1.8, 0.85, 2.9, 1.35}
	a := scec.RandomMatrix(f, rand.New(rand.NewPCG(3, 5)), m, l)
	x := scec.RandomVector(f, rand.New(rand.NewPCG(7, 9)), l)
	want := scec.MulVec(f, a, x)

	type opts = []scec.DeployOption[uint64]
	entryPoints := []string{"Deploy/local", "Deploy/sim", "Serve"}
	const planning, fleetOnly, never = "--x", "xx-", "xxx" // x = rejected at that entry point
	table := []struct {
		name string
		// planned shapes the code: Deploy gets it with opts, Serve's
		// deployment is made with it and then served with opts.
		planned opts
		opts    opts
		reject  string
	}{
		{"WithSimulator", nil, opts{scec.WithSimulator[uint64](scec.SimExecutorConfig{Metrics: obs.New()})}, planning},
		{"WithCoalescing", nil, opts{scec.WithCoalescing[uint64](time.Millisecond, 4)}, "---"},
		{"WithEngineMetrics", nil, opts{scec.WithEngineMetrics[uint64](obs.New())}, "---"},
		{"WithTracing", nil, opts{scec.WithTracing[uint64](scec.NewTracer(scec.TracerOptions{}))}, "---"},
		{"WithCollusion", nil, opts{scec.WithCollusion[uint64](2)}, planning},
		{"WithAdaptive", nil, opts{scec.WithAdaptive[uint64](scec.AdaptiveConfig{})}, fleetOnly},
		// The control plane re-plans with the t = 1 allocators, so a t = 2
		// code refuses it at every entry point — Serve included, though the
		// deployment it re-binds carries no WithCollusion option.
		{"WithAdaptive with WithCollusion", opts{scec.WithCollusion[uint64](2)}, opts{scec.WithAdaptive[uint64](scec.AdaptiveConfig{})}, never},
	}
	for _, row := range table {
		for col, entry := range entryPoints {
			t.Run(row.name+"/"+entry, func(t *testing.T) {
				rng := rand.New(rand.NewPCG(41, 97))
				deployOpts := append(slices.Clone(row.planned), row.opts...)
				var h *scec.Deployment[uint64]
				var err error
				switch entry {
				case "Deploy/local":
					h, err = scec.Deploy(f, a, costs, rng, deployOpts...)
				case "Deploy/sim":
					h, err = scec.Deploy(f, a, costs, rng, append(opts{scec.WithSimulator[uint64](scec.SimExecutorConfig{Metrics: obs.New()})}, deployOpts...)...)
				case "Serve":
					dep, derr := scec.Deploy(f, a, costs, rng, row.planned...)
					if derr != nil {
						t.Fatal(derr)
					}
					t.Cleanup(func() { _ = dep.Close() })
					h, err = (&fleetHarness[uint64]{replicas: 1}).serve(t, dep, row.opts...)
				}
				if h != nil {
					t.Cleanup(func() { _ = h.Close() })
				}
				if row.reject[col] == 'x' {
					// The combined row may be refused for either of its options.
					named := err != nil && slices.ContainsFunc(strings.Split(row.name, " with "), func(o string) bool {
						return strings.Contains(err.Error(), o)
					})
					if !errors.Is(err, scec.ErrOptionNotApplicable) || !named {
						t.Fatalf("err = %v, want ErrOptionNotApplicable naming %s", err, row.name)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				got, err := h.MulVec(x)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("entry %d decoded %d, want %d", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestRealStaysOnHost is the float64 boundary of the one bind path: no
// backend codes a float matrix, whose masks cannot be uniform. Deploy
// refuses it on the in-process kernels and under WithSimulator, and Serve
// refuses a float deployment assembled by hand, each with
// ErrOptionNotApplicable naming DeployQuantized and before provisioning a
// single device.
func TestRealStaysOnHost(t *testing.T) {
	f := scec.RealField(1e-6)
	rng := rand.New(rand.NewPCG(5, 8))
	a := scec.RandomMatrix(f, rng, 12, 9)
	costs := []float64{1.2, 0.9, 1.7}
	code, err := scec.NewCode(f, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	handmade := &scec.Deployment[float64]{F: f, Encoding: enc}

	for name, bind := range map[string]func() (*scec.Deployment[float64], error){
		"Deploy/local/plain": func() (*scec.Deployment[float64], error) {
			return scec.Deploy(f, a, costs, rng)
		},
		"Deploy/sim": func() (*scec.Deployment[float64], error) {
			return scec.Deploy(f, a, costs, rng, scec.WithSimulator[float64](scec.SimExecutorConfig{Metrics: obs.New()}))
		},
		"Serve": func() (*scec.Deployment[float64], error) {
			// Empty addresses: a refusal that came after provisioning
			// would fail to dial instead.
			return scec.Serve(handmade, scec.FleetConfig{Replicas: make([][]string, len(enc.Blocks))})
		},
	} {
		t.Run(name, func(t *testing.T) {
			h, err := bind()
			if h != nil {
				_ = h.Close()
			}
			if !errors.Is(err, scec.ErrOptionNotApplicable) || !strings.Contains(err.Error(), "DeployQuantized") {
				t.Fatalf("err = %v, want ErrOptionNotApplicable naming DeployQuantized", err)
			}
		})
	}
}
