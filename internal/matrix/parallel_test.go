package matrix

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/testenv"
)

// TestParallelForNestedSaturated is the guard on the class of bug the worker
// pool had, not on one instance of it: 4×GOMAXPROCS goroutines at once each
// run ParallelFor → ParallelFor → MulVecInto with every level above the
// threshold, at GOMAXPROCS 1, 2, 4 and 8. Every call must return (a hang
// fails the package's -timeout), visit every index exactly once, compute the
// serial answer, never run more than GOMAXPROCS−1 helpers at once, and leave
// no helper slot taken.
func TestParallelForNestedSaturated(t *testing.T) {
	restoreKernelConfig(t)
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(83, 89))
	a := Random(f, rng, 48, 32)
	x := RandomVec(f, rng, 32)
	want := refMulVec(f, a, x)
	SetParallelThreshold(1)

	const outer, inner, rounds = 6, 12, 3
	for _, procs := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var maxHelpers atomic.Int64
			observe := func() {
				h := helpersInFlight.Load()
				for {
					m := maxHelpers.Load()
					if h <= m || maxHelpers.CompareAndSwap(m, h) {
						return
					}
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < 4*procs; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := make([]uint64, outer*inner*a.Rows())
					for round := 0; round < rounds; round++ {
						hits := make([]atomic.Int32, outer*inner)
						ParallelFor(outer, 1<<20, func(lo, hi int) {
							observe()
							for i := lo; i < hi; i++ {
								ParallelFor(inner, 1<<20, func(lo2, hi2 int) {
									observe()
									for k := lo2; k < hi2; k++ {
										at := i*inner + k
										hits[at].Add(1)
										MulVecInto(f, a, x, dst[at*a.Rows():(at+1)*a.Rows()])
									}
								})
							}
						})
						for at := range hits {
							if n := hits[at].Load(); n != 1 {
								t.Errorf("index %d visited %d times", at, n)
								return
							}
							if !VecEqual(f, dst[at*a.Rows():(at+1)*a.Rows()], want) {
								t.Errorf("nested MulVecInto at %d differs from the serial product", at)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			if got := maxHelpers.Load(); got > int64(procs-1) {
				t.Errorf("saw %d helpers in flight, cap is GOMAXPROCS-1 = %d", got, procs-1)
			}
			if got := helpersInFlight.Load(); got != 0 {
				t.Errorf("%d helper slots still taken after every call returned", got)
			}
		})
	}
}

// TestParallelForSaturatedRunsSerial checks the degraded path: with every
// helper slot taken the call runs its whole range on the caller, in one
// piece, and reports that it did not shard.
func TestParallelForSaturatedRunsSerial(t *testing.T) {
	restoreKernelConfig(t)
	SetParallelThreshold(1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	if got := acquireHelpers(100, 3); got != 3 {
		t.Fatalf("acquireHelpers(100, 3) = %d, want 3", got)
	}
	defer helpersInFlight.Add(-3)
	calls := 0
	sharded := parallelFor(100, 1<<20, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Errorf("saturated call got range [%d, %d), want [0, 100)", lo, hi)
		}
	})
	if sharded || calls != 1 {
		t.Fatalf("saturated call: sharded=%v after %d calls of fn, want false after 1", sharded, calls)
	}
}

// TestParallelForAllocs: a sharded call allocates only its helper
// goroutine's closure. The shard state comes from a pool and goes back after
// the wait. testing.AllocsPerRun runs at GOMAXPROCS 1, where nothing
// shards, so the count is read from the memory statistics around the calls.
func TestParallelForAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	restoreKernelConfig(t)
	SetParallelThreshold(1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const calls = 200
	sharded := 0
	fn := func(lo, hi int) {}
	parallelFor(1024, 1024, fn) // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		if parallelFor(1024, 1024, fn) {
			sharded++
		}
	}
	runtime.ReadMemStats(&after)
	if sharded == 0 {
		t.Fatal("no call sharded with a helper slot free")
	}
	if got := float64(after.Mallocs-before.Mallocs) / calls; got > 1.05 {
		t.Fatalf("parallelFor = %.2f allocs per call (%d of %d sharded), want at most 1 (the helper closure)", got, sharded, calls)
	}
}

// TestKernelDifferentialAtDefaultThreshold runs the shapes that straddle
// DefaultParallelThreshold (2047..2049 rows of 64 columns around 128 Ki
// element-ops) through the default configuration and compares against the
// per-element reference, so the serial/sharded switch itself is covered at
// the value it ships with.
func TestKernelDifferentialAtDefaultThreshold(t *testing.T) {
	restoreKernelConfig(t)
	SetParallelThreshold(DefaultParallelThreshold)
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(97, 101))
	for _, rows := range []int{2047, 2048, 2049} {
		a := Random(f, rng, rows, 64)
		a2 := Random(f, rng, rows, 64)
		x := RandomVec(f, rng, 64)

		label := fmt.Sprintf("default config %dx64", rows)
		checkSame(t, label+" MulVec", refMulVec[uint64](f, a, x), MulVec(f, a, x))
		checkSame(t, label+" Add", refElementwise(a.data, a2.data, f.Add), Add(f, a, a2).data)
		checkSame(t, label+" Sub", refElementwise(a.data, a2.data, f.Sub), Sub(f, a, a2).data)
	}
}

// TestMulPrimeDotKernelEdges drives Mul's F_p kernel — DotRows over a
// once-transposed B — with the values that overflow a 128-bit accumulator
// first: every entry p−1, inner dimensions on both sides of DotVec's 64-
// element block and of each 32-product accumulator pair, and interior zeros.
// Each case runs serially and sharded at threshold 1; the reference is the
// per-element Mul/Add loop.
func TestMulPrimeDotKernelEdges(t *testing.T) {
	restoreKernelConfig(t)
	f := field.Prime{}
	for _, inner := range []int{1, 31, 32, 33, 63, 64, 65, 97, 200} {
		for _, zeroEvery := range []int{0, 2, 5} {
			a, b := New[uint64](3, inner), New[uint64](inner, 5)
			for i := range a.data {
				if zeroEvery == 0 || i%zeroEvery != 1 {
					a.data[i] = field.Modulus - 1
				}
			}
			for i := range b.data {
				b.data[i] = field.Modulus - 1
			}
			want := refMul[uint64](f, a, b)
			for _, mode := range serialAndSharded {
				SetParallelThreshold(mode.threshold)
				label := fmt.Sprintf("Mul inner=%d zeroEvery=%d %s", inner, zeroEvery, mode.name)
				checkSame(t, label, want.data, Mul(f, a, b).data)
			}
		}
	}
}
