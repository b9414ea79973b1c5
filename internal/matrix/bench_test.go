package matrix

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"github.com/scec/scec/internal/field"
)

// Substrate benchmarks: the dense kernels every other package sits on,
// across the three fields (the repro note flags Go's linear-algebra gap —
// these pin what our from-scratch kernels deliver).

const (
	benchN = 128 // square dimension for Mul/Rank/Solve
	benchL = 512 // row length for MulVec
)

func benchRNG() *rand.Rand { return rand.New(rand.NewPCG(99, 101)) }

// withThreshold pins the parallel threshold for one sub-benchmark and
// restores it afterwards.
func withThreshold(b *testing.B, threshold int, fn func(b *testing.B)) {
	defer SetParallelThreshold(SetParallelThreshold(threshold))
	fn(b)
}

// kernelVariants runs fn serially (threshold math.MaxInt) and at the
// default threshold, so serial-vs-parallel is directly comparable in one
// `go test -bench` run.
func kernelVariants(b *testing.B, fn func(b *testing.B)) {
	for _, v := range []struct {
		name      string
		threshold int
	}{
		{"serial", math.MaxInt},
		{"parallel", DefaultParallelThreshold},
	} {
		b.Run(v.name, func(b *testing.B) {
			withThreshold(b, v.threshold, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				fn(b)
			})
		})
	}
}

// BenchmarkMulVariantsPrime compares the dense product serial and parallel
// at a parallel-eligible size.
func BenchmarkMulVariantsPrime(b *testing.B) {
	f := field.Prime{}
	rng := benchRNG()
	x := Random[uint64](f, rng, benchN, benchN)
	y := Random[uint64](f, rng, benchN, benchN)
	kernelVariants(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Mul[uint64](f, x, y)
		}
	})
}

// BenchmarkMulBatchShapes times the F_p product on the shapes a device
// multiplies in a batch round — a block of coded rows times a 16-column X —
// at the default dispatch configuration, and reports ns per multiply-add
// (the paper's c^m unit). 14 and 20 rows are fleet_small blocks, 1000×256 a
// fleet_large one (table in EXPERIMENTS.md, "Batch product").
func BenchmarkMulBatchShapes(b *testing.B) {
	f := field.Prime{}
	rng := benchRNG()
	for _, shape := range []struct{ rows, inner, cols int }{
		{14, 64, 16}, {20, 64, 16}, {250, 64, 16}, {1000, 256, 16},
	} {
		x := Random[uint64](f, rng, shape.rows, shape.inner)
		y := Random[uint64](f, rng, shape.inner, shape.cols)
		b.Run(fmt.Sprintf("%dx%dx%d", shape.rows, shape.inner, shape.cols), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = Mul[uint64](f, x, y)
			}
			madds := float64(b.N) * float64(shape.rows*shape.inner*shape.cols)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/madds, "ns/madd")
		})
	}
}

// BenchmarkMulVariantsGF256 is the GF(256) table-kernel comparison.
func BenchmarkMulVariantsGF256(b *testing.B) {
	f := field.GF256{}
	rng := benchRNG()
	x := Random[byte](f, rng, benchN, benchN)
	y := Random[byte](f, rng, benchN, benchN)
	kernelVariants(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Mul[byte](f, x, y)
		}
	})
}

// BenchmarkMulVariantsReal is the float64 comparison.
func BenchmarkMulVariantsReal(b *testing.B) {
	f := field.Real{}
	rng := benchRNG()
	x := Random[float64](f, rng, benchN, benchN)
	y := Random[float64](f, rng, benchN, benchN)
	kernelVariants(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Mul[float64](f, x, y)
		}
	})
}

// BenchmarkMulVecVariantsPrime compares the matrix–vector hot path (the
// per-device compute kernel) serial and parallel.
func BenchmarkMulVecVariantsPrime(b *testing.B) {
	f := field.Prime{}
	rng := benchRNG()
	a := Random[uint64](f, rng, 1024, benchL)
	x := RandomVec[uint64](f, rng, benchL)
	kernelVariants(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = MulVec[uint64](f, a, x)
		}
	})
}

// BenchmarkAddVariantsPrime compares the element-wise kernels (the encode
// inner loop) serial and parallel.
func BenchmarkAddVariantsPrime(b *testing.B) {
	f := field.Prime{}
	rng := benchRNG()
	x := Random[uint64](f, rng, 1024, benchL)
	y := Random[uint64](f, rng, 1024, benchL)
	kernelVariants(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Add[uint64](f, x, y)
		}
	})
}

func BenchmarkMulPrime(b *testing.B) {
	f := field.Prime{}
	rng := benchRNG()
	x := Random[uint64](f, rng, benchN, benchN)
	y := Random[uint64](f, rng, benchN, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Mul[uint64](f, x, y)
	}
}

func BenchmarkMulReal(b *testing.B) {
	f := field.Real{}
	rng := benchRNG()
	x := Random[float64](f, rng, benchN, benchN)
	y := Random[float64](f, rng, benchN, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Mul[float64](f, x, y)
	}
}

func BenchmarkMulGF256(b *testing.B) {
	f := field.GF256{}
	rng := benchRNG()
	x := Random[byte](f, rng, benchN, benchN)
	y := Random[byte](f, rng, benchN, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Mul[byte](f, x, y)
	}
}

func BenchmarkMulVecPrime(b *testing.B) {
	f := field.Prime{}
	rng := benchRNG()
	a := Random[uint64](f, rng, benchN, benchL)
	x := RandomVec[uint64](f, rng, benchL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MulVec[uint64](f, a, x)
	}
}

func BenchmarkRankPrime(b *testing.B) {
	f := field.Prime{}
	rng := benchRNG()
	a := Random[uint64](f, rng, benchN, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Rank[uint64](f, a)
	}
}

func BenchmarkSolvePrime(b *testing.B) {
	f := field.Prime{}
	rng := benchRNG()
	a := Random[uint64](f, rng, benchN, benchN)
	rhs := RandomVec[uint64](f, rng, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve[uint64](f, a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelForOverhead is the fixed price of one sharded call: an
// empty fn at threshold 1, so everything measured is the state allocation,
// the helper start and wake-up, the chunk claims, and the wait.
func BenchmarkParallelForOverhead(b *testing.B) {
	withThreshold(b, 1, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ParallelFor(1024, 1024, func(lo, hi int) {})
		}
	})
}

// BenchmarkMulVecCrossover is the measurement DefaultParallelThreshold is
// derived from (table in EXPERIMENTS.md, "Parallel-kernel crossover"): the
// Prime MulVecInto at a ladder of element-op counts, serial against sharded
// at threshold 1, plus the fleet shape — five device products of 1000×256
// running at once, where sharding competes with the other devices for the
// same cores.
func BenchmarkMulVecCrossover(b *testing.B) {
	f := field.Prime{}
	rng := benchRNG()
	// run times fn serial and sharded as two sub-benchmarks of name.
	run := func(name string, fn func()) {
		for _, mode := range []struct {
			name      string
			threshold int
		}{{"serial", math.MaxInt}, {"sharded", 1}} {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				withThreshold(b, mode.threshold, func(b *testing.B) {
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						fn()
					}
				})
			})
		}
	}
	for _, shape := range []struct{ rows, cols int }{
		{512, 64}, {1250, 64}, {2048, 64}, {2304, 64}, {2500, 64}, {4096, 64}, {5000, 64}, {1000, 256},
	} {
		a := Random[uint64](f, rng, shape.rows, shape.cols)
		x := RandomVec[uint64](f, rng, shape.cols)
		dst := make([]uint64, shape.rows)
		run(fmt.Sprintf("ops=%d/%dx%d", shape.rows*shape.cols, shape.rows, shape.cols), func() {
			MulVecInto[uint64](f, a, x, dst)
		})
	}

	const devices, rows, cols = 5, 1000, 256
	x := RandomVec[uint64](f, rng, cols)
	var blocks [devices]*Dense[uint64]
	var outs [devices][]uint64
	for j := range blocks {
		blocks[j] = Random[uint64](f, rng, rows, cols)
		outs[j] = make([]uint64, rows)
	}
	run(fmt.Sprintf("concurrent=%dx%dx%d", devices, rows, cols), func() {
		var wg sync.WaitGroup
		for j := range blocks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				MulVecInto[uint64](f, blocks[j], x, outs[j])
			}()
		}
		wg.Wait()
	})
}
