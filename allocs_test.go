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
// allocs_per_query counts it. The stack measures 8: per block the device's
// request goroutine and the client's y slab (6), plus the concatenated
// result and the decode output. The device reads x into, and computes y
// into, slabs its connection recycles, and the gather allocates nothing:
// one loop on the caller's goroutine over a recycled query state. It
// measured 14 while the device allocated both slabs per request, 27 while
// each query started a goroutine per block under its own context, 117
// before frame headers, stream channels and receive timers stopped
// allocating, and 300 before metrics lookups, untraced spans and hedge
// bookkeeping did; the slack absorbs runtime noise, not a new per-query
// allocation site.
const servedQueryAllocBudget = 12

// TestServedQueryAllocBudget serves the benchmark's fleet_small_seq shape
// (m=40, l=64, three single-replica devices on loopback sockets, one caller,
// tracing off) and fails when a warm Served.MulVecContext costs more than
// the budget or answers anything but A·x.
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
	run := func(n int) {
		for i := 0; i < n; i++ {
			y, err := s.MulVecContext(ctx, x)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(y, want) {
				t.Fatalf("query %d: served answer differs from A·x", i)
			}
		}
	}
	run(200) // connections dialed, series registered, latency ring full
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(queries)
	runtime.ReadMemStats(&after)
	perQuery := float64(after.Mallocs-before.Mallocs) / queries
	t.Logf("%.1f allocs per served query (budget %d)", perQuery, servedQueryAllocBudget)
	if perQuery > servedQueryAllocBudget {
		t.Fatalf("%.1f allocs per served query, budget is %d", perQuery, servedQueryAllocBudget)
	}
}
