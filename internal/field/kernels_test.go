package field

import (
	"math/big"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"strconv"
	"testing"
)

// kernelLens exercises empty, single-element, and odd lengths, every edge of
// Prime.DotVec's 64-element block and 32-product accumulator pair (31..33,
// 63..65, 127..129), and lengths spanning many blocks.
var kernelLens = []int{0, 1, 2, 3, 7, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 257, 1000, 4097}

// worstVec returns n copies of p−1, the residue that maximizes every
// intermediate value of a kernel.
func worstVec(n int) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = Modulus - 1
	}
	return v
}

func primeVec(rng *rand.Rand, n int) []uint64 {
	var f Prime
	v := make([]uint64, n)
	for i := range v {
		v[i] = f.Rand(rng)
	}
	return v
}

// dotLenMax is the longest vector the DotVec path tests take: past two
// IFMA chunks (2·ifmaChunkLen) plus a tail, so every length from 0 crosses
// the 8-lane, 64-element-block and 1024-element-chunk edges.
const dotLenMax = 2100

// forEachDotPath runs check once per DotVec path this host can run, toggling
// useIFMA and restoring it after: the block loop ("block": the assembly MULQ
// loop on amd64, the Go loop elsewhere), then the IFMA kernel ("ifma") if
// hasIFMA.
func forEachDotPath(t *testing.T, check func(t *testing.T)) {
	t.Helper()
	saved := useIFMA
	defer func() { useIFMA = saved }()
	useIFMA = false
	t.Run("block", check)
	if !hasIFMA() {
		t.Log("ifma: skipped, hasIFMA is false on this host")
		return
	}
	useIFMA = true
	t.Run("ifma", check)
}

// dotOperands returns the operand pairs the DotVec path tests use, each
// dotLenMax+pad long: uniform, the all-(p−1) vectors that maximize every
// intermediate value, and one of each.
func dotOperands(rng *rand.Rand, pad int) map[string][2][]uint64 {
	uniA, uniX := primeVec(rng, dotLenMax+pad), primeVec(rng, dotLenMax+pad)
	worst := worstVec(dotLenMax + pad)
	return map[string][2][]uint64{
		"uniform": {uniA, uniX},
		"p-1":     {worst, worst},
		"mixed":   {worst, uniX},
	}
}

// TestPrimeDotVecAgainstBigInt checks DotVec on each path against an exact
// big.Int evaluation at every length 0..dotLenMax, starting 0, 1 and 2
// elements into a longer slice with x one element longer than a, on
// uniform vectors and on the adversarial all-(p−1) vectors (which would
// overflow a 128-bit pair that took more than its share of a block, or an
// IFMA chunk past its bound).
func TestPrimeDotVecAgainstBigInt(t *testing.T) {
	var f Prime
	const pad = 3
	operands := dotOperands(rand.New(rand.NewPCG(3, 5)), pad)
	mod := new(big.Int).SetUint64(Modulus)
	forEachDotPath(t, func(t *testing.T) {
		for name, pair := range operands {
			for off := 0; off < pad; off++ {
				a, x := pair[0][off:], pair[1][off:]
				want, term := new(big.Int), new(big.Int)
				for n := 0; n <= dotLenMax; n++ {
					if got := f.DotVec(a[:n], x[:n+1]); got != new(big.Int).Mod(want, mod).Uint64() {
						t.Fatalf("%s, offset %d: DotVec(len %d) = %d, want %d", name, off, n, got, new(big.Int).Mod(want, mod).Uint64())
					}
					term.SetUint64(a[n]).Mul(term, new(big.Int).SetUint64(x[n]))
					want.Add(want, term)
				}
			}
		}
	})
}

// dotVecGeneric is DotVec built on the Go block loop alone: the reference
// for every assembly path.
func dotVecGeneric(a, x []uint64) uint64 {
	var sum uint64
	for len(a) > dotBlockLen {
		sum = Prime{}.Add(sum, dotBlockGeneric(a[:dotBlockLen], x[:dotBlockLen]))
		a, x = a[dotBlockLen:], x[dotBlockLen:]
	}
	return Prime{}.Add(sum, dotBlockGeneric(a, x))
}

// TestDotBlockMatchesGeneric checks the assembly against the Go loop
// dotBlockGeneric, starting 0, 1 and 2 elements into a longer slice so the
// loads are not all aligned, on uniform vectors, the all-(p−1) vectors, and
// one of each: dotBlock at every block length, and DotVec on each path at
// every length 0..dotLenMax with x longer than a.
func TestDotBlockMatchesGeneric(t *testing.T) {
	const pad = 3
	operands := dotOperands(rand.New(rand.NewPCG(13, 17)), pad)
	for name, pair := range operands {
		for off := 0; off < pad; off++ {
			for n := 0; n <= dotBlockLen; n++ {
				a, x := pair[0][off:off+n], pair[1][off:off+n]
				if got, want := dotBlock(a, x), dotBlockGeneric(a, x); got != want {
					t.Fatalf("%s, offset %d, len %d: dotBlock = %d, dotBlockGeneric = %d", name, off, n, got, want)
				}
			}
		}
	}
	forEachDotPath(t, func(t *testing.T) {
		var f Prime
		for name, pair := range operands {
			for off := 0; off < pad; off++ {
				for n := 0; n <= dotLenMax; n++ {
					a, x := pair[0][off:off+n], pair[1][off:off+n+1]
					if got, want := f.DotVec(a, x), dotVecGeneric(a, x); got != want {
						t.Fatalf("%s, offset %d, len %d: DotVec = %d, Go loop = %d", name, off, n, got, want)
					}
				}
			}
		}
	})
}

// dotIFMAModel is dotIFMA in Go: the same seven 52-bit limb products summed
// into the same three weights, wrapping at 2⁶⁴ as the lanes would.
func dotIFMAModel(a, x []uint64) (w0, w52, w104 uint64) {
	const mask = 1<<52 - 1
	lo := func(u, v uint64) uint64 { _, l := bits.Mul64(u, v); return l & mask }
	hi := func(u, v uint64) uint64 { h, l := bits.Mul64(u, v); return h<<12 | l>>52 }
	for i, av := range a {
		a0, a1, x0, x1 := av&mask, av>>52, x[i]&mask, x[i]>>52
		w0 += lo(a0, x0)
		w52 += hi(a0, x0) + lo(a0, x1) + lo(a1, x0)
		w104 += hi(a0, x1) + hi(a1, x0) + lo(a1, x1)
	}
	return w0, w52, w104
}

// TestReduceIFMA checks the IFMA weighting on any host: the model's three
// weights, reduced by reduceIFMA, equal the element-wise Mul/Add loop at
// every chunk length, up to ifmaChunkLen of all-(p−1) — the bound's worst
// case. Where the CPU has IFMA, the assembly's weights must also equal the
// model's exactly, from unaligned starts.
func TestReduceIFMA(t *testing.T) {
	var f Prime
	const pad = 2
	operands := dotOperands(rand.New(rand.NewPCG(19, 23)), pad)
	for name, pair := range operands {
		for off := 0; off <= pad; off++ {
			a, x := pair[0][off:], pair[1][off:]
			var want uint64
			for n := 0; n <= ifmaChunkLen; n++ {
				if n%ifmaLanes == 0 {
					m0, m52, m104 := dotIFMAModel(a[:n], x[:n])
					if got := reduceIFMA(m0, m52, m104); got != want {
						t.Fatalf("%s, offset %d, len %d: reduceIFMA(model) = %d, want %d", name, off, n, got, want)
					}
					if hasIFMA() {
						if w0, w52, w104 := dotIFMA(a[:n], x[:n]); w0 != m0 || w52 != m52 || w104 != m104 {
							t.Fatalf("%s, offset %d, len %d: dotIFMA = (%d, %d, %d), model = (%d, %d, %d)", name, off, n, w0, w52, w104, m0, m52, m104)
						}
					}
				}
				want = f.Add(want, f.Mul(a[n], x[n]))
			}
		}
	}
}

// TestPrimeKernelPath logs which DotVec path this host runs, so a CI log
// says whether the IFMA kernel was exercised, and checks that the choice is
// the CPUID result.
func TestPrimeKernelPath(t *testing.T) {
	if useIFMA != hasIFMA() {
		t.Fatalf("useIFMA = %v, hasIFMA() = %v", useIFMA, hasIFMA())
	}
	if useIFMA {
		t.Log("DotVec path: AVX-512 IFMA (dotIFMA), MULQ block loop for tails under 8")
		return
	}
	t.Logf("DotVec path: block loop (%s); AVX-512 IFMA absent, so the IFMA half of the path tests is skipped", runtime.GOARCH)
}

// TestPrimeKernelsMatchScalarOps checks every Prime vector kernel against
// the element-wise field methods: identical canonical outputs.
func TestPrimeKernelsMatchScalarOps(t *testing.T) {
	var f Prime
	rng := rand.New(rand.NewPCG(7, 11))
	for _, n := range kernelLens {
		a, b := primeVec(rng, n), primeVec(rng, n)

		worst := worstVec(n)
		for _, pair := range [][2][]uint64{{a, b}, {worst, worst}, {worst, b}} {
			var want uint64
			for i := range pair[0] {
				want = f.Add(want, f.Mul(pair[0][i], pair[1][i]))
			}
			if got := f.DotVec(pair[0], pair[1]); got != want {
				t.Fatalf("DotVec(len %d) = %d, want %d", n, got, want)
			}
		}

		sum, diff := make([]uint64, n), make([]uint64, n)
		f.AddVecInto(sum, a, b)
		f.SubVecInto(diff, a, b)
		for i := range a {
			if want := f.Add(a[i], b[i]); sum[i] != want {
				t.Fatalf("AddVecInto[%d] = %d, want %d", i, sum[i], want)
			}
			if want := f.Sub(a[i], b[i]); diff[i] != want {
				t.Fatalf("SubVecInto[%d] = %d, want %d", i, diff[i], want)
			}
		}
	}
}

// dotRowsField is a Field together with the DotVec its DotRows is built on.
type dotRowsField[E comparable] interface {
	Field[E]
	DotVec(a, x []E) E
}

// checkDotRows checks f.DotRows over rows rows of a, each len(x) long,
// against DotVec per row and the element-wise Mul/Add loop, with ==.
func checkDotRows[E comparable](t *testing.T, f dotRowsField[E], rows int, a, x []E) {
	t.Helper()
	n := len(x)
	dst := make([]E, rows)
	f.DotRows(dst, a, x)
	for i, got := range dst {
		row := a[i*n : (i+1)*n]
		want := f.Zero()
		for k, xv := range x {
			want = f.Add(want, f.Mul(row[k], xv))
		}
		if dot := f.DotVec(row, x); got != dot || got != want {
			t.Fatalf("%s DotRows %dx%d: row %d = %v, DotVec = %v, element-wise = %v", f.Name(), rows, n, i, got, dot, want)
		}
	}
}

// dotRowsShapes covers an empty dst, rows of length 0, and row lengths on
// both sides of the 64-element block and the 1024-element IFMA chunk.
var dotRowsShapes = []struct{ rows, cols int }{
	{0, 0}, {0, 5}, {3, 0}, {1, 1}, {4, 7},
	{3, 63}, {3, 64}, {3, 65}, {2, 1023}, {2, 1024}, {2, 1025}, {2, 2049},
}

// TestDotRows checks each field's DotRows against per-row DotVec and the
// element-wise loop: Prime on each DotVec path this host can run, on
// uniform and all-(p−1) rows.
func TestDotRows(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 59))
	forEachDotPath(t, func(t *testing.T) {
		for _, sh := range dotRowsShapes {
			checkDotRows[uint64](t, Prime{}, sh.rows, primeVec(rng, sh.rows*sh.cols), primeVec(rng, sh.cols))
			checkDotRows[uint64](t, Prime{}, sh.rows, worstVec(sh.rows*sh.cols), worstVec(sh.cols))
		}
	})
	for _, sh := range dotRowsShapes {
		var g GF256
		ga, gx := make([]byte, sh.rows*sh.cols), make([]byte, sh.cols)
		for i := range ga {
			ga[i] = g.Rand(rng)
		}
		for i := range gx {
			gx[i] = g.Rand(rng)
		}
		checkDotRows[byte](t, g, sh.rows, ga, gx)

		var r Real
		ra, rx := make([]float64, sh.rows*sh.cols), make([]float64, sh.cols)
		for i := range ra {
			ra[i] = r.Rand(rng)
		}
		for i := range rx {
			rx[i] = r.Rand(rng)
		}
		checkDotRows[float64](t, r, sh.rows, ra, rx)
	}
}

// TestPrimeReduce128 checks the 128-bit reduction against big.Int over
// boundary values and random pairs.
func TestPrimeReduce128(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 17))
	mod := new(big.Int).SetUint64(Modulus)
	cases := [][2]uint64{
		{0, 0}, {0, Modulus}, {0, Modulus - 1}, {0, ^uint64(0)},
		{1, 0}, {^uint64(0), ^uint64(0)}, {1 << 61, 42},
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, [2]uint64{rng.Uint64(), rng.Uint64()})
	}
	for _, c := range cases {
		hi, lo := c[0], c[1]
		want := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
		want.Add(want, new(big.Int).SetUint64(lo))
		want.Mod(want, mod)
		if got := reduce128(hi, lo); got != want.Uint64() {
			t.Fatalf("reduce128(%d, %d) = %d, want %d", hi, lo, got, want.Uint64())
		}
	}
}

// TestGF256MulTableExhaustive checks the full 64 KiB multiplication table
// against the log/exp Mul over every pair of bytes.
func TestGF256MulTableExhaustive(t *testing.T) {
	var f GF256
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := gf256Mul[a][b], f.Mul(byte(a), byte(b)); got != want {
				t.Fatalf("gf256Mul[%#x][%#x] = %#x, want %#x", a, b, got, want)
			}
		}
	}
}

// TestGF256KernelsMatchScalarOps checks the GF(256) vector kernels against
// the element-wise methods.
func TestGF256KernelsMatchScalarOps(t *testing.T) {
	var f GF256
	rng := rand.New(rand.NewPCG(29, 31))
	for _, n := range kernelLens {
		a, b := make([]byte, n), make([]byte, n)
		for i := range a {
			a[i], b[i] = f.Rand(rng), f.Rand(rng)
		}
		var dot byte
		for i := range a {
			dot = f.Add(dot, f.Mul(a[i], b[i]))
		}
		if got := f.DotVec(a, b); got != dot {
			t.Fatalf("DotVec(len %d) = %#x, want %#x", n, got, dot)
		}

		for _, s := range []byte{0, 1, 0x53, f.Rand(rng)} {
			dst := append([]byte(nil), a...)
			want := make([]byte, n)
			for i := range want {
				want[i] = f.Add(a[i], f.Mul(s, b[i]))
			}
			f.AXPYVec(dst, s, b)
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("AXPYVec(s=%#x)[%d] = %#x, want %#x", s, i, dst[i], want[i])
				}
			}
		}

		sum, diff := make([]byte, n), make([]byte, n)
		f.AddVecInto(sum, a, b)
		f.SubVecInto(diff, a, b)
		for i := range a {
			if want := a[i] ^ b[i]; sum[i] != want {
				t.Fatalf("AddVecInto[%d] = %#x, want %#x", i, sum[i], want)
			}
			if diff[i] != sum[i] || diff[i] != f.Sub(a[i], b[i]) {
				t.Fatalf("SubVecInto[%d] = %#x, want AddVecInto's %#x", i, diff[i], sum[i])
			}
		}
	}
}

// TestRealKernelsBitIdentical checks the float64 kernels reproduce the
// generic Add/Mul sequences bit for bit (same order, no FMA contraction).
func TestRealKernelsBitIdentical(t *testing.T) {
	var f Real
	rng := rand.New(rand.NewPCG(37, 41))
	for _, n := range kernelLens {
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = f.Rand(rng), f.Rand(rng)
		}
		var dot float64
		for i := range a {
			dot = f.Add(dot, f.Mul(a[i], b[i]))
		}
		if got := f.DotVec(a, b); got != dot {
			t.Fatalf("DotVec(len %d) = %v, want %v (bitwise)", n, got, dot)
		}

		s := f.Rand(rng)
		dst := append([]float64(nil), a...)
		want := make([]float64, n)
		for i := range want {
			want[i] = f.Add(a[i], f.Mul(s, b[i]))
		}
		f.AXPYVec(dst, s, b)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("AXPYVec[%d] = %v, want %v (bitwise)", i, dst[i], want[i])
			}
		}

		sum, diff := make([]float64, n), make([]float64, n)
		f.AddVecInto(sum, a, b)
		f.SubVecInto(diff, a, b)
		for i := range a {
			if sum[i] != a[i]+b[i] || diff[i] != a[i]-b[i] {
				t.Fatalf("Add/SubVecInto[%d] mismatch", i)
			}
		}
	}
}

// BenchmarkPrimeDotVec times the F_p dot product — the multiply-add the
// paper's cost model prices — per row of 64, 256 and 4096 columns. ns/op
// divided by the column count is the cost of one multiply-add.
func BenchmarkPrimeDotVec(b *testing.B) {
	var f Prime
	rng := rand.New(rand.NewPCG(43, 47))
	for _, cols := range []int{64, 256, 4096} {
		a, x := primeVec(rng, cols), primeVec(rng, cols)
		b.Run(strconv.Itoa(cols), func(b *testing.B) {
			b.ReportAllocs()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += f.DotVec(a, x)
			}
			dotSink = sink
		})
	}
}

// dotSink keeps the benchmarked DotVec calls observable.
var dotSink uint64
