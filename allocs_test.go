package scec_test

import (
	"context"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/testenv"
	"github.com/scec/scec/internal/transport"
)

// servedQueryAllocBudget is the heap-allocation ceiling for one warm query
// through the whole stack, counted process-wide (caller, connection
// goroutines, and the in-process device servers), as the benchmark's
// allocs_per_query counts it. Through MulVecContext the stack measures 1:
// the fresh decode output the call returns. Nothing else allocates. The
// devices' results land in engine staging the query recycles, the gather
// copies each block's reply into it on the caller's goroutine from a slab
// the client connection recycles, the decode writes straight into the
// output, and a device serves a compute this small on its connection's
// read loop, reading x into and computing y into recycled slabs. It
// measured 8 while each device request ran on a goroutine of its own, the
// client allocated every reply and the gather concatenated them; 14 while
// the device allocated both slabs per request, 27 while each query started
// a goroutine per block under its own context, 117 before frame headers,
// stream channels and receive timers stopped allocating, and 300 before
// metrics lookups, untraced spans and hedge bookkeeping did. The slack
// absorbs runtime noise (a GC emptying the recycling pools), not a new
// per-query allocation site.
const servedQueryAllocBudget = 3

// servedIntoAllocBudget is the same ceiling through MulVecInto, where the
// caller owns the output: it measures 0.
const servedIntoAllocBudget = 1

// allocsPerQuery runs n warm-up queries, then measures the mean heap
// allocations of n more, process-wide.
func allocsPerQuery(warm, n int, query func(i int)) float64 {
	for i := range warm {
		query(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		query(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestServedQueryAllocBudget serves the benchmark's fleet_small_seq shape
// (m=40, l=64, three single-replica devices on loopback sockets, one caller,
// tracing off) and fails when a warm Served.MulVecContext or MulVecInto
// costs more than its budget or answers anything but A·x.
func TestServedQueryAllocBudget(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(15, 40))
	const m, l, queries = 40, 64, 2000
	a := scec.RandomMatrix(f, rng, m, l)
	reg := obs.New()
	dep, err := scec.Deploy(f, a, []float64{1, 1, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dep.Close() })
	cfg := scec.FleetConfig{
		Replicas:      make([][]string, dep.Devices()),
		ProbeInterval: -1,
		Metrics:       reg,
	}
	for j := range cfg.Replicas {
		srv, err := transport.NewDeviceServerOptions(f, "127.0.0.1:0", transport.Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		cfg.Replicas[j] = []string{srv.Addr()}
	}
	s, err := scec.Serve(dep, cfg, scec.WithEngineMetrics[uint64](reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	ctx := context.Background()
	x := scec.RandomVector(f, rng, l)
	want := scec.MulVec(f, a, x)
	check := func(i int, y []uint64, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(y, want) {
			t.Fatalf("query %d: served answer differs from A·x", i)
		}
	}
	// 200 warm-up queries: connections dialed, series registered, latency
	// ring full.
	perQuery := allocsPerQuery(200, queries, func(i int) {
		y, err := s.MulVecContext(ctx, x)
		check(i, y, err)
	})
	t.Logf("%.1f allocs per served MulVecContext (budget %d)", perQuery, servedQueryAllocBudget)
	if perQuery > servedQueryAllocBudget {
		t.Fatalf("%.1f allocs per served MulVecContext, budget is %d", perQuery, servedQueryAllocBudget)
	}
	dst := make([]uint64, m)
	perQuery = allocsPerQuery(200, queries, func(i int) {
		clear(dst)
		check(i, dst, s.MulVecInto(ctx, dst, x))
	})
	t.Logf("%.1f allocs per served MulVecInto (budget %d)", perQuery, servedIntoAllocBudget)
	if perQuery > servedIntoAllocBudget {
		t.Fatalf("%.1f allocs per served MulVecInto, budget is %d", perQuery, servedIntoAllocBudget)
	}
}

// localQueryAllocBudget is the ceiling for one warm query on the
// benchmark's local_paper_seq shape (m=1000, l=64, k=25 candidate devices
// priced 1 + 0.16·j, so the plan runs r=250 over 5 blocks, on the default
// Local executor). Through MulVecInto it measures 1: the closure
// ComputeAllInto hands matrix.ParallelFor. The round's m+r intermediate
// values live in engine staging the query recycles and the block offsets
// are computed once per encoding; it measured 4 when ComputeAll allocated
// both per call and the decode allocated its output.
const localQueryAllocBudget = 2

// TestLocalQueryAllocBudget pins the engine's staging on the Local
// executor: a warm MulVecInto costs at most localQueryAllocBudget
// allocations and answers exactly A·x.
func TestLocalQueryAllocBudget(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(25, 1000))
	const m, l, k, queries = 1000, 64, 25, 500
	a := scec.RandomMatrix(f, rng, m, l)
	costs := make([]float64, k)
	for j := range costs {
		costs[j] = 1 + 0.16*float64(j)
	}
	dep, err := scec.Deploy(f, a, costs, rng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dep.Close() })
	ctx := context.Background()
	x := scec.RandomVector(f, rng, l)
	want := scec.MulVec(f, a, x)
	dst := make([]uint64, m)
	perQuery := allocsPerQuery(50, queries, func(i int) {
		clear(dst)
		if err := dep.MulVecInto(ctx, dst, x); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dst, want) {
			t.Fatalf("query %d: local answer differs from A·x", i)
		}
	})
	t.Logf("%.1f allocs per local MulVecInto over %d blocks (budget %d)", perQuery, dep.Devices(), localQueryAllocBudget)
	if perQuery > localQueryAllocBudget {
		t.Fatalf("%.1f allocs per local MulVecInto, budget is %d", perQuery, localQueryAllocBudget)
	}
}
