package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/transport"
)

// queryVectors is how many distinct inputs each workload cycles through;
// every one has its expected A·x computed before the clock starts.
const queryVectors = 64

// spec fixes one workload: the problem shape, the cost vector that pins the
// plan, the fleet topology and the closed-loop caller count. Nothing in a
// spec depends on the seed; the seed only draws A and the query vectors.
type spec struct {
	name string
	why  string
	m, l int
	// costs pins the TA1 plan; wantR and wantDevices are asserted against it
	// (every device then holds wantR rows, since all five shapes divide
	// evenly).
	costs       []float64
	wantR       int
	wantDevices int
	// replicas is the number of device servers per coded block; 0 selects
	// the default Local executor (no sockets).
	replicas int
	callers  int
	// coalesceWindow > 0 serves through WithCoalescing(window, coalesceMax).
	coalesceWindow time.Duration
	coalesceMax    int
	// ladderIters is the traced ladder's iteration count at full scale.
	ladderIters int
}

func (s spec) local() bool     { return s.replicas == 0 }
func (s spec) coalesced() bool { return s.coalesceWindow > 0 }

// paperCosts is the README's standing benchmark fleet: k = 25 devices with
// c_j = 1 + 0.16·j.
func paperCosts() []float64 {
	c := make([]float64, 25)
	for j := range c {
		c[j] = 1 + 0.16*float64(j)
	}
	return c
}

// specs lists the five workloads in reporting order. The why strings are
// the ones BENCHMARK.json records.
var specs = []spec{
	{
		name: "fleet_small_seq",
		why:  "m=40 l=64, 3 devices, 1 caller: kernel is ~2us of the query, so this is the fixed per-query cost of engine+fleet+transport",
		m:    40, l: 64, costs: []float64{1, 1, 1}, wantR: 20, wantDevices: 3,
		replicas: 1, callers: 1, ladderIters: 2000,
	},
	{
		name: "fleet_large_seq",
		why:  "m=4000 l=256, 5 devices x 1000 rows, 1 caller: 1.28M multiply-adds and ~40KB of results per query, kernel and payload bytes dominate",
		m:    4000, l: 256, costs: []float64{1, 1, 1, 1, 1}, wantR: 1000, wantDevices: 5,
		replicas: 1, callers: 1, ladderIters: 200,
	},
	{
		name: "fleet_small_conc",
		why:  "small shape, 2 replicas per block, 16 callers, no coalescing: many streams per pooled conn, group commit, replica racing and hedging",
		m:    40, l: 64, costs: []float64{1, 1, 1}, wantR: 20, wantDevices: 3,
		replicas: 2, callers: 16, ladderIters: 2000,
	},
	{
		name: "fleet_small_coalesced",
		why:  "same 6-server fleet, 32 callers, WithCoalescing(200us,16): coalescer, MulMat/GatherBatch, batch frames, matrix.Mul, DecodeBatch",
		m:    40, l: 64, costs: []float64{1, 1, 1}, wantR: 20, wantDevices: 3,
		replicas: 2, callers: 32, coalesceWindow: 200 * time.Microsecond, coalesceMax: 16,
		ladderIters: 2000,
	},
	{
		name: "local_paper_seq",
		why:  "m=1000 l=64 k=25 on the default Local executor, 1 caller: bypasses fleet and transport, so changes there must not move it",
		m:    1000, l: 64, costs: paperCosts(), wantR: 250, wantDevices: 5,
		replicas: 0, callers: 1, ladderIters: 2000,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs is everything a run derives from the seed: the confidential matrix,
// the query vectors and their plaintext products.
type inputs struct {
	a    *matrix.Dense[uint64]
	xs   [][]uint64
	want [][]uint64
}

// makeInputs draws A and the query vectors from a PCG seeded by seed and
// computes every expected A·x with the plaintext kernel. The same seed gives
// the same inputs.
func makeInputs(s spec, seed uint64) inputs {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(seed, 0x5cec))
	in := inputs{a: matrix.Random(f, rng, s.m, s.l)}
	for i := 0; i < queryVectors; i++ {
		x := matrix.RandomVec(f, rng, s.l)
		in.xs = append(in.xs, x)
		in.want = append(in.want, matrix.MulVec(f, in.a, x))
	}
	return in
}

// stack is one live deployment of a workload: the device servers (none for
// the Local workload), the facade handles, and the MulVec entry point the
// callers drive.
type stack struct {
	servers []*transport.DeviceServer[uint64]
	addrs   [][]string // addrs[j] = replica addresses of block j
	dep     *scec.Deployment[uint64]
	served  *scec.Served[uint64] // nil for the Local workload
}

// startServers brings up replicas device servers per block on loopback
// ephemeral ports, recording their telemetry into reg.
func startServers(blocks, replicas int, reg *obs.Registry) ([]*transport.DeviceServer[uint64], [][]string, error) {
	var servers []*transport.DeviceServer[uint64]
	addrs := make([][]string, blocks)
	for j := 0; j < blocks; j++ {
		for r := 0; r < replicas; r++ {
			srv, err := transport.NewDeviceServerOptions(scec.PrimeField(), "127.0.0.1:0", transport.Options{Metrics: reg})
			if err != nil {
				closeServers(servers)
				return nil, nil, err
			}
			servers = append(servers, srv)
			addrs[j] = append(addrs[j], srv.Addr())
		}
	}
	return servers, addrs, nil
}

func closeServers(servers []*transport.DeviceServer[uint64]) {
	for _, srv := range servers {
		_ = srv.Close()
	}
}

// setupTimes is what one cold set-up cost, split at the facade's own seams.
type setupTimes struct {
	total      time.Duration // Deploy + Serve + first verified MulVec
	serve      time.Duration // scec.Serve alone (0 for Local)
	firstQuery time.Duration
}

// deploy provisions one stack through the public facade. Device listeners
// are started before the clock; the timed part is scec.Deploy (plan +
// encode), scec.Serve (store to every replica) and the first MulVec, which
// is verified against the plaintext product. tracer may be nil.
func deploy(s spec, in inputs, rngSeed uint64, reg *obs.Registry, tracer *scec.Tracer) (*stack, setupTimes, error) {
	var (
		st  stack
		t   setupTimes
		err error
	)
	if !s.local() {
		st.servers, st.addrs, err = startServers(s.wantDevices, s.replicas, reg)
		if err != nil {
			return nil, t, err
		}
	}
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(rngSeed, 0xdeb107))

	// Engine options go to Deploy for the Local workload (its handle serves
	// the queries) and to Serve for fleet workloads (Served owns the engine).
	opts := []scec.DeployOption[uint64]{scec.WithEngineMetrics[uint64](reg)}
	if s.coalesced() {
		opts = append(opts, scec.WithCoalescing[uint64](s.coalesceWindow, s.coalesceMax))
	}
	if tracer != nil {
		opts = append(opts, scec.WithTracing[uint64](tracer))
	}
	var depOpts []scec.DeployOption[uint64]
	if s.local() {
		depOpts = opts
	}

	start := time.Now()
	st.dep, err = scec.Deploy(f, in.a, s.costs, rng, depOpts...)
	if err != nil {
		st.close()
		return nil, t, err
	}
	if !s.local() {
		serveStart := time.Now()
		st.served, err = scec.Serve(st.dep, scec.FleetConfig{
			Replicas:      st.addrs,
			ProbeInterval: -1,
			Metrics:       reg,
			Tracer:        tracer,
		}, opts...)
		t.serve = time.Since(serveStart)
		if err != nil {
			st.close()
			return nil, t, err
		}
	}
	queryStart := time.Now()
	y, err := st.mulVec(context.Background(), in.xs[0])
	end := time.Now()
	if err == nil && !equalVec(y, in.want[0]) {
		err = errors.New("first query returned a wrong A·x")
	}
	if err != nil {
		st.close()
		return nil, t, err
	}
	t.firstQuery = end.Sub(queryStart)
	t.total = end.Sub(start)
	return &st, t, nil
}

// mulVec is the facade entry point the callers drive: the Served handle over
// the fleet, or the Deployment itself for the Local workload.
func (st *stack) mulVec(ctx context.Context, x []uint64) ([]uint64, error) {
	if st.served != nil {
		return st.served.MulVecContext(ctx, x)
	}
	return st.dep.MulVecContext(ctx, x)
}

// close shuts the stack down, client side first so the pooled connections
// see an orderly end.
func (st *stack) close() {
	if st.served != nil {
		_ = st.served.Close()
	}
	if st.dep != nil {
		_ = st.dep.Close()
	}
	closeServers(st.servers)
}

// checkPlan asserts, outside any timing, what the workload's numbers rest
// on: the plan shape the spec promises and cost optimality (Theorems 1 and 4:
// TA1 meets the lower bound when the shape divides evenly).
func checkPlan(s spec, dep *scec.Deployment[uint64]) error {
	p := dep.Plan
	if p.R != s.wantR || p.I != s.wantDevices || len(p.Assignments) != s.wantDevices {
		return fmt.Errorf("plan is r=%d over %d devices, want r=%d over %d", p.R, p.I, s.wantR, s.wantDevices)
	}
	for _, as := range p.Assignments {
		if as.Rows != s.wantR {
			return fmt.Errorf("device %d holds %d rows, want %d", as.Device, as.Rows, s.wantR)
		}
	}
	lb, err := scec.LowerBound(s.m, s.costs)
	if err != nil {
		return err
	}
	if math.Abs(p.Cost-lb) > 1e-9*lb {
		return fmt.Errorf("plan cost %g misses the Theorem 1 lower bound %g", p.Cost, lb)
	}
	if s.local() && s.wantR*s.l >= matrix.DefaultParallelThreshold {
		// A per-device product at or above the threshold would shard from
		// inside a pool worker, which is the known nested-pool deadlock.
		return fmt.Errorf("local block of %d x %d reaches the parallel threshold %d", s.wantR, s.l, matrix.DefaultParallelThreshold)
	}
	return nil
}

// checkSecrecy asserts per-device secrecy (Definition 2): every device's
// leak dimension is zero. It is a property of the code, not of the seed, and
// on the large shape it costs seconds of rank computation, so only the
// traced run pays for it.
func checkSecrecy(dep *scec.Deployment[uint64]) error {
	for j, leak := range dep.Audit() {
		if leak != 0 {
			return fmt.Errorf("device %d leaks %d combinations of A's rows", j, leak)
		}
	}
	return nil
}
