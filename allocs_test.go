package scec_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
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

// concurrentAllocsPerQuery is allocsPerQuery with the queries split over
// callers goroutines, each issuing its share back to back, as the
// benchmark's closed loop does: query(c, i) is caller c's query number i,
// and a non-nil error from it fails the test. Starting the callers costs a
// few allocations per phase, under 0.01 per query at the sizes used here.
func concurrentAllocsPerQuery(t *testing.T, callers, warm, n int, query func(c, i int) error) float64 {
	t.Helper()
	errs := make(chan error, callers)
	phase := func(total int) {
		var wg sync.WaitGroup
		for c := range callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := c; i < total; i += callers {
					if err := query(c, i); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	var perQuery float64
	for _, total := range []int{warm, n} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		phase(total)
		runtime.ReadMemStats(&after)
		perQuery = float64(after.Mallocs-before.Mallocs) / float64(total)
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
	return perQuery
}

// servedFleet deploys an m×l matrix over three equal-cost blocks and
// serves it on replicas loopback device servers per block, untraced, with
// the default engine options (a fleet coalesces by group commit). It
// returns the served handle and the matrix.
func servedFleet(t *testing.T, rng *rand.Rand, m, l, replicas int) (*scec.Served[uint64], *scec.Matrix[uint64]) {
	t.Helper()
	f := scec.PrimeField()
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
		for range replicas {
			srv, err := transport.NewDeviceServerOptions(f, "127.0.0.1:0", transport.Options{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			cfg.Replicas[j] = append(cfg.Replicas[j], srv.Addr())
		}
	}
	s, err := scec.Serve(dep, cfg, scec.WithEngineMetrics[uint64](reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, a
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
	s, a := servedFleet(t, rng, m, l, 1)

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

// concurrentQueryAllocBudget is the ceiling for one warm query on the
// benchmark's fleet_small_conc shape: servedQueryAllocBudget's fleet with
// two loopback replicas per block and 16 callers at once, so most callers
// park behind a round in flight and go out in a merged group-commit round.
// Through MulVecContext it measures about 1.1: the fresh output, plus each
// merged round's detached context and the odd goroutine that starts a run
// of rounds, shared by the callers the round serves. A parked caller
// allocates nothing of its own: its waiter, with the waiter's channel,
// comes from the coalescer's free list, the queue's slice is the last
// executed round's, and its column arrives in a recycled buffer. It
// measured 4.8 while every parked caller allocated a waiter and its
// channel and every queue a fresh batch and a growing slice.
const concurrentQueryAllocBudget = 1.5

// concurrentIntoAllocBudget is the same ceiling through MulVecInto, where
// each caller owns its output: it measures about 0.1.
const concurrentIntoAllocBudget = 0.5

// TestConcurrentServedQueryAllocBudget serves the fleet_small_conc shape
// (m=40, l=64, three blocks × two loopback replicas, 16 callers, default
// group commit) and fails when a warm concurrent query costs more than its
// budget, counted process-wide per verified query, or when any caller gets
// anything but A·x for its own vector.
func TestConcurrentServedQueryAllocBudget(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(16, 40))
	const m, l, callers, queries = 40, 64, 16, 4000
	s, a := servedFleet(t, rng, m, l, 2)

	// Distinct vectors, so a column handed to the wrong caller shows.
	xs := make([][]uint64, 2*callers)
	wants := make([][]uint64, len(xs))
	for i := range xs {
		xs[i] = scec.RandomVector(f, rng, l)
		wants[i] = scec.MulVec(f, a, xs[i])
	}
	ctx := context.Background()
	check := func(i int, y []uint64, err error) error {
		if err != nil {
			return err
		}
		if !slices.Equal(y, wants[i%len(xs)]) {
			return fmt.Errorf("query %d: served answer differs from A·x", i)
		}
		return nil
	}
	perQuery := concurrentAllocsPerQuery(t, callers, 1000, queries, func(_, i int) error {
		y, err := s.MulVecContext(ctx, xs[i%len(xs)])
		return check(i, y, err)
	})
	t.Logf("%.2f allocs per concurrent served MulVecContext (budget %.1f)", perQuery, concurrentQueryAllocBudget)
	if perQuery > concurrentQueryAllocBudget {
		t.Fatalf("%.2f allocs per concurrent served MulVecContext, budget is %.1f", perQuery, concurrentQueryAllocBudget)
	}
	dsts := make([][]uint64, callers)
	for c := range dsts {
		dsts[c] = make([]uint64, m)
	}
	perQuery = concurrentAllocsPerQuery(t, callers, 1000, queries, func(c, i int) error {
		clear(dsts[c])
		return check(i, dsts[c], s.MulVecInto(ctx, dsts[c], xs[i%len(xs)]))
	})
	t.Logf("%.2f allocs per concurrent served MulVecInto (budget %.1f)", perQuery, concurrentIntoAllocBudget)
	if perQuery > concurrentIntoAllocBudget {
		t.Fatalf("%.2f allocs per concurrent served MulVecInto, budget is %.1f", perQuery, concurrentIntoAllocBudget)
	}
}

// localQueryAllocBudget is the ceiling for one warm query on the
// benchmark's local_paper_seq shape (m=1000, l=64, k=25 candidate devices
// priced 1 + 0.16·j, so the plan runs r=250 over 5 blocks, on the default
// Local executor). Through MulVecInto it measures 0. The round's m+r
// intermediate values live in engine staging the query recycles, the block
// offsets are computed once per encoding, and ComputeAllInto builds its
// matrix.ParallelFor closure only when the call may shard, which this
// shape's 80,000 element-ops never do. It measured 1 while that closure was
// built on every call, and 4 when ComputeAll allocated both per call and
// the decode allocated its output. The slack absorbs runtime noise, as in
// servedQueryAllocBudget; MulVecContext adds its fresh output to the count.
const localQueryAllocBudget = 1

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
