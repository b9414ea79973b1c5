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

// fleetHarness provisions faultproxy.Proxy-fronted loopback device fleets
// for the fleet executor's Provision hook. A chunked deploy calls it once per
// chunk; each call's proxies are recorded as one group so tests can fail
// specific chunks.
type fleetHarness struct {
	t        *testing.T
	f        scec.Field[uint64]
	replicas int

	mu     sync.Mutex
	groups [][][]*faultproxy.Proxy // groups[call][block][replica]
}

func newFleetHarness(t *testing.T, replicas int) *fleetHarness {
	return &fleetHarness{t: t, f: scec.PrimeField(), replicas: replicas}
}

// config returns a deterministic engine fleet configuration provisioning
// through the harness.
func (h *fleetHarness) config() scec.FleetExecutorConfig {
	return scec.FleetExecutorConfig{
		Session: scec.FleetConfig{
			QueryTimeout:  10 * time.Second,
			RPCTimeout:    2 * time.Second,
			HedgeAfter:    -1, // deterministic failover, no speculation
			ProbeInterval: -1, // no background probing
			Metrics:       obs.New(),
		},
		Provision: h.provision,
	}
}

func (h *fleetHarness) provision(blocks int) ([][]string, []string, error) {
	group := make([][]*faultproxy.Proxy, blocks)
	addrs := make([][]string, blocks)
	for j := 0; j < blocks; j++ {
		for k := 0; k < h.replicas; k++ {
			srv, err := transport.NewDeviceServer(h.f, "127.0.0.1:0")
			if err != nil {
				return nil, nil, err
			}
			h.t.Cleanup(func() { _ = srv.Close() })
			p, err := faultproxy.New(srv.Addr())
			if err != nil {
				return nil, nil, err
			}
			h.t.Cleanup(func() { _ = p.Close() })
			group[j] = append(group[j], p)
			addrs[j] = append(addrs[j], p.Addr())
		}
	}
	h.mu.Lock()
	h.groups = append(h.groups, group)
	h.mu.Unlock()
	return addrs, nil, nil
}

// failFirstReplicas drops the first replica of every block in provisioning
// group g.
func (h *fleetHarness) failFirstReplicas(g int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, replicas := range h.groups[g] {
		replicas[0].SetMode(faultproxy.Drop)
	}
}

func (h *fleetHarness) groupCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.groups)
}

// TestDeployBackendsAgree: the same deployment inputs answer identically
// over the local, sim, and fleet facade backends.
func TestDeployBackendsAgree(t *testing.T) {
	f := scec.PrimeField()
	const m, l = 30, 8
	costs := []float64{1.5, 0.7, 2.2, 1.1}
	newRng := func() *rand.Rand { return rand.New(rand.NewPCG(5, 21)) }
	a := scec.RandomMatrix(f, newRng(), m, l)
	x := scec.RandomVector(f, rand.New(rand.NewPCG(8, 2)), l)
	want := scec.MulVec(f, a, x)

	backends := map[string]scec.ExecutorBackend[uint64]{
		"local": scec.LocalExecutor[uint64](),
		"sim":   scec.SimExecutor[uint64](scec.SimExecutorConfig{Metrics: obs.New()}),
		"fleet": scec.FleetExecutor[uint64](newFleetHarness(t, 1).config()),
	}
	for name, backend := range backends {
		t.Run(name, func(t *testing.T) {
			// Same seed stream per backend: identical plan, coding, and
			// random rows, so answers must be bit-identical.
			dep, err := scec.Deploy(f, a, costs, newRng(), scec.WithExecutor(backend))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = dep.Close() })
			if got := dep.Backend(); got != name {
				t.Fatalf("Backend() = %q, want %q", got, name)
			}
			got, err := dep.MulVec(x)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("backend %s: entry %d = %d, want %d", name, i, got[i], want[i])
				}
			}
		})
	}
}

// TestChunkedOverFleetSurvivesChunkFaults is the acceptance path: a chunked
// deployment runs every chunk over its own replicated fleet, one chunk's
// primary replicas are all killed mid-session, and MulVec/MulMat stay
// exact.
func TestChunkedOverFleetSurvivesChunkFaults(t *testing.T) {
	f := scec.PrimeField()
	const m, l, chunkCols = 24, 10, 4
	costs := []float64{1.5, 0.7, 2.2}
	rng := rand.New(rand.NewPCG(31, 7))
	a := scec.RandomMatrix(f, rng, m, l)
	h := newFleetHarness(t, 2)
	cd, err := scec.Deploy(f, a, costs, rng, scec.WithChunking[uint64](chunkCols),
		scec.WithExecutor(scec.FleetExecutor[uint64](h.config())))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cd.Close() })
	if got, want := h.groupCount(), cd.Chunks(); got != want || want != 3 {
		t.Fatalf("provisioned %d fleets for %d chunks, want 3 of each", got, want)
	}
	// Every chunk's fleet hosts the one shared plan's blocks; no single
	// session speaks for the deployment.
	if cd.Devices() != cd.Plan.I || cd.Session() != nil {
		t.Fatalf("chunked deployment reports %d devices (plan: %d), session %v", cd.Devices(), cd.Plan.I, cd.Session())
	}
	for _, leak := range cd.Audit() {
		if leak != 0 {
			t.Fatal("chunked deployment leaks")
		}
	}

	x := scec.RandomVector(f, rng, l)
	want := scec.MulVec(f, a, x)
	check := func() {
		t.Helper()
		got, err := cd.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatal("chunked fleet query decoded the wrong result")
			}
		}
	}
	check()
	// Kill the first replica of every block of chunk 0; its fleet must fail
	// over to the surviving replicas.
	h.failFirstReplicas(0)
	check()

	// The batch path takes the same faulted route.
	xm := scec.NewMatrix[uint64](l, 3)
	for i := 0; i < l; i++ {
		for j := 0; j < 3; j++ {
			xm.Set(i, j, f.Rand(rng))
		}
	}
	gotM, err := cd.MulMat(xm)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		col := make([]uint64, l)
		for i := 0; i < l; i++ {
			col[i] = xm.At(i, j)
		}
		wantCol := scec.MulVec(f, a, col)
		for i := range wantCol {
			if gotM.At(i, j) != wantCol[i] {
				t.Fatal("chunked fleet MulMat decoded the wrong result")
			}
		}
	}
}

// TestQuantizedOverFleetSurvivesFaults: the quantized facade serves float
// queries over a replicated fleet with a dead replica per block — as one
// fleet, and (it only forwards its options) column-chunked over three.
func TestQuantizedOverFleetSurvivesFaults(t *testing.T) {
	t.Run("monolithic", func(t *testing.T) { testQuantizedOverFleet(t, 1) })
	t.Run("chunked", func(t *testing.T) { testQuantizedOverFleet(t, 3, scec.WithChunking[uint64](2)) })
}

func testQuantizedOverFleet(t *testing.T, fleets int, opts ...scec.DeployOption[uint64]) {
	const m, l = 12, 6
	rng := rand.New(rand.NewPCG(3, 77))
	a := scec.NewMatrix[float64](m, l)
	for i := 0; i < m; i++ {
		for j := 0; j < l; j++ {
			a.Set(i, j, float64(rng.IntN(256)-128)/8)
		}
	}
	costs := []float64{1.2, 0.9, 1.7}
	h := newFleetHarness(t, 2)
	qd, err := scec.DeployQuantized(a, 12, 16, costs, rng,
		append(opts, scec.WithExecutor(scec.FleetExecutor[uint64](h.config())))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = qd.Close() })
	if got := h.groupCount(); got != fleets || qd.Chunks() != fleets {
		t.Fatalf("provisioned %d fleets for %d chunks, want %d", got, qd.Chunks(), fleets)
	}
	if qd.Devices() <= 0 {
		t.Fatal("quantized deployment reports no devices")
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
	h.failFirstReplicas(0)
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

// TestChunkedDeployDeterministic: a chunked deploy encodes once from the
// caller's RNG, so the same seed reproduces identical deployments (same
// coded blocks, same query answers) run after run.
func TestChunkedDeployDeterministic(t *testing.T) {
	f := scec.PrimeField()
	const m, l, chunkCols = 18, 9, 2
	costs := []float64{1.4, 0.8, 2.1, 1.3}
	build := func() *scec.Deployment[uint64] {
		rng := rand.New(rand.NewPCG(101, 202))
		a := scec.RandomMatrix(f, rng, m, l)
		cd, err := scec.Deploy(f, a, costs, rng, scec.WithChunking[uint64](chunkCols))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cd.Close() })
		return cd
	}
	cd1, cd2 := build(), build()
	x := scec.RandomVector(f, rand.New(rand.NewPCG(9, 9)), l)
	y1, err := cd1.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	y2, err := cd2.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y1 {
		if y1[i] != y2[i] {
			t.Fatal("same seed produced diverging chunked deployments")
		}
	}
	for j, block := range cd1.Encoding.Blocks {
		if !scec.MatrixEqual(f, block, cd2.Encoding.Blocks[j]) {
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
// rejects WithExecutor.
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
	if _, err := scec.Serve(dep, cfg, scec.WithExecutor(scec.LocalExecutor[uint64]())); err == nil {
		t.Fatal("Serve accepted WithExecutor")
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
		scec.WithExecutor(scec.SimExecutor[uint64](scec.SimExecutorConfig{Metrics: obs.New()})))
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
	cd, err := scec.Deploy(f, a, costs, rng, scec.WithChunking[uint64](3))
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
	for name, p := range map[string]provisioned{"deploy": dep, "chunked": cd, "quantized": qd} {
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
	sim, _ := deployBackend(t, scec.WithExecutor(scec.SimExecutor[uint64](scec.SimExecutorConfig{Metrics: obs.New()})))
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
// bind — on the fleet config or as the engine option, through Serve or
// through Deploy over a FleetExecutor — receives both layers' series,
// instead of the other layer's falling through to obs.Default().
func TestServeSharesRegistry(t *testing.T) {
	type binder func(cfg scec.FleetConfig, opts ...scec.DeployOption[uint64]) (*scec.Served[uint64], int)
	entryPoints := map[string]binder{
		"Serve": func(cfg scec.FleetConfig, opts ...scec.DeployOption[uint64]) (*scec.Served[uint64], int) {
			dep, l := deployBackend(t)
			return serveLoopback(t, dep, cfg, opts...), l
		},
		"Deploy": func(cfg scec.FleetConfig, opts ...scec.DeployOption[uint64]) (*scec.Served[uint64], int) {
			fc := newFleetHarness(t, 1).config()
			fc.Session.Metrics = cfg.Metrics
			return deployBackend(t, append(opts, scec.WithExecutor(scec.FleetExecutor[uint64](fc)))...)
		},
	}
	for entry, bind := range entryPoints {
		for _, via := range []string{"FleetConfig.Metrics", "WithEngineMetrics"} {
			reg := obs.New()
			var s *scec.Served[uint64]
			var l int
			if via == "WithEngineMetrics" {
				s, l = bind(scec.FleetConfig{}, scec.WithEngineMetrics[uint64](reg))
			} else {
				s, l = bind(scec.FleetConfig{Metrics: reg})
			}
			if _, err := s.MulVec(make([]uint64, l)); err != nil {
				t.Fatalf("%s via %s: %v", entry, via, err)
			}
			for _, fam := range []string{obs.MetricEngineDispatchTotal, obs.MetricFleetQueriesTotal, obs.MetricRPCClientRequests} {
				if n, _ := familyTotal(reg, fam); n < 1 {
					t.Errorf("%s via %s: %s = %g in the given registry, want >= 1", entry, via, fam, n)
				}
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
	entryPoints := []string{"Deploy/local", "Deploy/sim", "Deploy/fleet", "Serve"}
	const planning, fleetOnly, never = "---x", "xx--", "xxxx" // x = rejected at that entry point
	table := []struct {
		name string
		// planned shapes the code: Deploy gets it with opts, Serve's
		// deployment is made with it and then served with opts.
		planned opts
		opts    opts
		reject  string
	}{
		// Deploy's columns pass their own WithExecutor; only Serve gets this one.
		{"WithExecutor", nil, nil, planning},
		{"WithCoalescing", nil, opts{scec.WithCoalescing[uint64](time.Millisecond, 4)}, "----"},
		{"WithEngineMetrics", nil, opts{scec.WithEngineMetrics[uint64](obs.New())}, "----"},
		{"WithTracing", nil, opts{scec.WithTracing[uint64](scec.NewTracer(scec.TracerOptions{}))}, "----"},
		{"WithCollusion", nil, opts{scec.WithCollusion[uint64](2)}, planning},
		{"WithChunking", nil, opts{scec.WithChunking[uint64](4)}, planning},
		{"WithAdaptive", nil, opts{scec.WithAdaptive[uint64](scec.AdaptiveConfig{})}, fleetOnly},
		{"WithAdaptive with WithChunking", nil, opts{scec.WithAdaptive[uint64](scec.AdaptiveConfig{}), scec.WithChunking[uint64](4)}, never},
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
					h, err = scec.Deploy(f, a, costs, rng, append(opts{scec.WithExecutor(scec.LocalExecutor[uint64]())}, deployOpts...)...)
				case "Deploy/sim":
					h, err = scec.Deploy(f, a, costs, rng, append(opts{scec.WithExecutor(scec.SimExecutor[uint64](scec.SimExecutorConfig{Metrics: obs.New()}))}, deployOpts...)...)
				case "Deploy/fleet":
					h, err = scec.Deploy(f, a, costs, rng, append(opts{scec.WithExecutor(scec.FleetExecutor[uint64](newFleetHarness(t, 1).config()))}, deployOpts...)...)
				case "Serve":
					dep, derr := scec.Deploy(f, a, costs, rng, row.planned...)
					if derr != nil {
						t.Fatal(derr)
					}
					t.Cleanup(func() { _ = dep.Close() })
					cfg := newFleetHarness(t, 1).config()
					cfg.Session.Replicas, _, _ = cfg.Provision(dep.Devices())
					serveOpts := row.opts
					if row.name == "WithExecutor" {
						serveOpts = opts{scec.WithExecutor(scec.LocalExecutor[uint64]())}
					}
					h, err = scec.Serve(dep, cfg.Session, serveOpts...)
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

// TestRealStaysOnHost is the float64 boundary of the one bind path. A
// RealField deployment answers on the in-process kernels, plain or chunked,
// within the field's tolerance. Every backend that would take its
// Gaussian-masked blocks off the host — the simulator, a fleet, Serve —
// refuses it with ErrOptionNotApplicable naming DeployQuantized, before
// provisioning a single device.
func TestRealStaysOnHost(t *testing.T) {
	f := scec.RealField(1e-6)
	rng := rand.New(rand.NewPCG(5, 8))
	a := scec.RandomMatrix(f, rng, 12, 9)
	x := scec.RandomVector(f, rng, 9)
	want := scec.MulVec(f, a, x)
	costs := []float64{1.2, 0.9, 1.7}
	type opts = []scec.DeployOption[float64]

	for name, o := range map[string]opts{"plain": nil, "WithChunking": {scec.WithChunking[float64](4)}} {
		t.Run("Deploy/local/"+name, func(t *testing.T) {
			dep, err := scec.Deploy(f, a, costs, rand.New(rand.NewPCG(1, 2)), o...)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = dep.Close() })
			if dep.Backend() != "local" {
				t.Fatalf("backend %q, want local", dep.Backend())
			}
			got, err := dep.MulVec(x)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if !f.Equal(got[i], want[i]) {
					t.Fatalf("entry %d: %g, want %g", i, got[i], want[i])
				}
			}
		})
	}

	local, err := scec.Deploy(f, a, costs, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = local.Close() })
	noFleet := scec.FleetExecutorConfig{Provision: func(int) ([][]string, []string, error) {
		t.Error("a Real deployment provisioned a fleet")
		return nil, nil, errors.New("no fleet for Real")
	}}
	for name, bind := range map[string]func() (*scec.Deployment[float64], error){
		"Deploy/sim": func() (*scec.Deployment[float64], error) {
			return scec.Deploy(f, a, costs, rng, scec.WithExecutor(scec.SimExecutor[float64](scec.SimExecutorConfig{Metrics: obs.New()})))
		},
		"Deploy/fleet": func() (*scec.Deployment[float64], error) {
			return scec.Deploy(f, a, costs, rng, scec.WithExecutor(scec.FleetExecutor[float64](noFleet)))
		},
		"Serve": func() (*scec.Deployment[float64], error) {
			return scec.Serve(local, scec.FleetConfig{Replicas: make([][]string, local.Devices())})
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
