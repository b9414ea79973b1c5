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
		t.Log("DotRows path: AVX-512 IFMA, eight rows per pass (dotRows8IFMA), the last rows under 8 by DotVec")
		t.Log("DotVec path: AVX-512 IFMA (dotIFMA), MULQ block loop for tails under 8")
		return
	}
	t.Logf("DotRows path: DotVec per row; DotVec path: block loop (%s); AVX-512 IFMA absent, so the IFMA half of the path tests is skipped", runtime.GOARCH)
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

// TestPrimeAddSubVecBoundaries checks the branchless AddVecInto and
// SubVecInto against Add and Sub on the pairs where the borrow flips: equal
// operands, 0 − (p−1), (p−1) + (p−1), 0 + 0, and the sums and differences
// one either side of p and 0.
func TestPrimeAddSubVecBoundaries(t *testing.T) {
	var f Prime
	pairs := [][2]uint64{
		{0, 0}, {1, 1}, {Modulus - 1, Modulus - 1}, {0, Modulus - 1}, {Modulus - 1, 0},
		{1, Modulus - 1}, {Modulus - 1, 1}, {1, Modulus - 2}, {Modulus - 2, 1},
		{2, Modulus - 1}, {0, 1}, {1, 0}, {1 << 60, 1 << 60}, {1<<60 - 1, 1 << 60},
	}
	a, b := make([]uint64, len(pairs)), make([]uint64, len(pairs))
	for i, pr := range pairs {
		a[i], b[i] = pr[0], pr[1]
	}
	sum, diff := make([]uint64, len(pairs)), make([]uint64, len(pairs))
	f.AddVecInto(sum, a, b)
	f.SubVecInto(diff, a, b)
	for i := range pairs {
		if want := f.Add(a[i], b[i]); sum[i] != want {
			t.Errorf("AddVecInto(%d, %d) = %d, want %d", a[i], b[i], sum[i], want)
		}
		if want := f.Sub(a[i], b[i]); diff[i] != want {
			t.Errorf("SubVecInto(%d, %d) = %d, want %d", a[i], b[i], diff[i], want)
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
// both sides of the 64-element block and the 1024-element IFMA chunk. Then,
// for Prime's eight-row kernel, every row count from 0 to 17 (no block, one
// block with and without leftover rows, two blocks) and 250 (31 blocks and
// 2 rows), at no columns, at column counts on both sides of a multiple of 8
// and of the 1024-column chunk, and past two chunks.
var dotRowsShapes = func() []struct{ rows, cols int } {
	shapes := []struct{ rows, cols int }{
		{0, 0}, {0, 5}, {3, 0}, {1, 1}, {4, 7},
		{3, 63}, {3, 64}, {3, 65}, {2, 1023}, {2, 1024}, {2, 1025}, {2, 2049},
	}
	for _, cols := range []int{0, 1, 5, 8, 13, 64, 256, 1023, 1024, 1025, 2049} {
		for rows := range 18 {
			shapes = append(shapes, struct{ rows, cols int }{rows, cols})
		}
		shapes = append(shapes, struct{ rows, cols int }{250, cols})
	}
	return shapes
}()

// TestDotRows checks each field's DotRows against per-row DotVec and the
// element-wise loop: Prime on each DotVec path this host can run, on
// uniform and all-(p−1) rows, with a and x starting 0, 1 and 3 elements
// into their slices so row starts are not all 64-byte aligned. a ends
// exactly at its last row, so a kernel that read past it would read another
// allocation.
func TestDotRows(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 59))
	forEachDotPath(t, func(t *testing.T) {
		for _, sh := range dotRowsShapes {
			for _, off := range []int{0, 1, 3} {
				n := sh.rows * sh.cols
				checkDotRows[uint64](t, Prime{}, sh.rows, primeVec(rng, off+n)[off:], primeVec(rng, off+sh.cols)[off:])
				checkDotRows[uint64](t, Prime{}, sh.rows, worstVec(off + n)[off:], worstVec(off + sh.cols)[off:])
			}
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

// zmm is one 512-bit register as eight 64-bit lanes, for the Go model of
// dotRows8IFMA.
type zmm = [8]uint64

// unpackLo and unpackHi model VPUNPCK{L,H}QDQ: in each 128-bit lane, the
// low (high) qword of u, then that of v.
func unpackLo(u, v zmm) (z zmm) {
	for j := 0; j < 8; j += 2 {
		z[j], z[j+1] = u[j], v[j]
	}
	return z
}

func unpackHi(u, v zmm) (z zmm) {
	for j := 0; j < 8; j += 2 {
		z[j], z[j+1] = u[j+1], v[j+1]
	}
	return z
}

// shufI64x2 models VSHUFI64X2: 128-bit lanes 0 and 1 of the result are the
// lanes of u that imm's bit pairs 0 and 1 name, lanes 2 and 3 those of v
// that bit pairs 2 and 3 name.
func shufI64x2(imm uint8, u, v zmm) (z zmm) {
	for i := range 4 {
		src, sel := u, int(imm>>(2*i)&3)
		if i >= 2 {
			src = v
		}
		z[2*i], z[2*i+1] = src[2*sel], src[2*sel+1]
	}
	return z
}

func addLanes(u, v zmm) (z zmm) {
	for j := range z {
		z[j] = u[j] + v[j]
	}
	return z
}

// fold8Model is FOLD8: the transpose-add that leaves row i's lane sum of
// one weight in lane i, by the same unpacks and shuffles, wrapping at 2⁶⁴
// as the lanes would.
func fold8Model(r [ifmaRows]zmm) zmm {
	var t [4]zmm
	for j := range t {
		t[j] = addLanes(unpackLo(r[2*j], r[2*j+1]), unpackHi(r[2*j], r[2*j+1]))
	}
	u := addLanes(shufI64x2(0x88, t[0], t[1]), shufI64x2(0xDD, t[0], t[1]))
	v := addLanes(shufI64x2(0x88, t[2], t[3]), shufI64x2(0xDD, t[2], t[3]))
	return addLanes(shufI64x2(0x88, u, v), shufI64x2(0xDD, u, v))
}

// reduceLanesModel is dotRows8IFMA's lane reduction: with 2⁶¹ ≡ 1, each
// lane's w0 + w52·2⁵² + w104·2¹⁰⁴ folds to s < 2⁶³, one more fold leaves
// s < 2p, and min(s, s−p) is the canonical residue.
func reduceLanesModel(w0, w52, w104 zmm) (out zmm) {
	for j := range out {
		s := w0[j]&Modulus + w0[j]>>61 + (w52[j]&0x1FF)<<52 + w52[j]>>9 + (w104[j]&0x3FFFF)<<43 + w104[j]>>18
		s = s&Modulus + s>>61
		out[j] = min(s, s-Modulus)
	}
	return out
}

// dotRows8Model is dotRows8IFMA in Go: each row's three weight
// accumulators lane by lane, column c in lane c mod 8 (the masked tail
// pass leaves the other lanes as they were), then FOLD8 per weight and the
// lane reduction. It also returns the folded weights.
func dotRows8Model(a []uint64, stride int, x []uint64) (out zmm, w [3]zmm) {
	const mask = 1<<52 - 1
	lo := func(u, v uint64) uint64 { _, l := bits.Mul64(u, v); return l & mask }
	hi := func(u, v uint64) uint64 { h, l := bits.Mul64(u, v); return h<<12 | l>>52 }
	var acc [3][ifmaRows]zmm // weight, row, lane
	for c, xv := range x {
		x0, x1, lane := xv&mask, xv>>52, c%ifmaLanes
		for r := range ifmaRows {
			av := a[r*stride+c]
			a0, a1 := av&mask, av>>52
			acc[0][r][lane] += lo(a0, x0)
			acc[1][r][lane] += hi(a0, x0) + lo(a0, x1) + lo(a1, x0)
			acc[2][r][lane] += hi(a0, x1) + hi(a1, x0) + lo(a1, x1)
		}
	}
	for k := range w {
		w[k] = fold8Model(acc[k])
	}
	return reduceLanesModel(w[0], w[1], w[2]), w
}

// TestDotRows8Model checks the model of the eight-row kernel on any host:
// at every column count up to ifmaChunkLen, on uniform, all-(p−1) (the
// bound's worst case at 1024) and near-p operands, and on rows whose dot
// product is exactly p (the case only the final min corrects), each row's
// folded weights equal dotIFMAModel's with the tail zero-padded to a
// multiple of 8, and each row's residue equals reduceIFMA of them and the
// element-wise Mul/Add loop. Where the CPU has IFMA, dotRows8IFMA's eight
// outputs must equal the model's exactly, with rows at a stride longer
// than the columns and starting one element into the slice.
func TestDotRows8Model(t *testing.T) {
	var f Prime
	rng := rand.New(rand.NewPCG(71, 73))
	const n = ifmaChunkLen
	stride := n + 3
	near := make([]uint64, 1+ifmaRows*stride)
	for i := range near {
		near[i] = Modulus - 1 - rng.Uint64N(1<<10)
	}
	exactP := make([]uint64, 1+ifmaRows*stride) // rows of 1, p−1, 0, 0, ...
	for r := range ifmaRows {
		exactP[1+r*stride], exactP[2+r*stride] = 1, Modulus-1
	}
	ones := make([]uint64, n+1)
	for i := range ones {
		ones[i] = 1
	}
	operands := map[string][2][]uint64{
		"uniform": {primeVec(rng, 1+ifmaRows*stride), primeVec(rng, n+1)},
		"p-1":     {worstVec(1 + ifmaRows*stride), worstVec(n + 1)},
		"near-p":  {near, near[:n+1]},
		"exact-p": {exactP, ones},
	}
	if !hasIFMA() {
		t.Log("dotRows8IFMA: skipped, hasIFMA is false on this host; the model is still checked")
	}
	for name, pair := range operands {
		a, x := pair[0][1:], pair[1][1:]
		for cols := 0; cols <= n; cols++ {
			model, w := dotRows8Model(a, stride, x[:cols])
			padded := (cols + ifmaLanes - 1) &^ (ifmaLanes - 1)
			xp := append(append([]uint64(nil), x[:cols]...), make([]uint64, padded-cols)...)
			for r := range ifmaRows {
				row := a[r*stride : r*stride+cols]
				rp := append(append([]uint64(nil), row...), make([]uint64, padded-cols)...)
				m0, m52, m104 := dotIFMAModel(rp, xp)
				if w[0][r] != m0 || w[1][r] != m52 || w[2][r] != m104 {
					t.Fatalf("%s, cols %d, row %d: folded weights (%d, %d, %d), dotIFMAModel (%d, %d, %d)", name, cols, r, w[0][r], w[1][r], w[2][r], m0, m52, m104)
				}
				if want := reduceIFMA(m0, m52, m104); model[r] != want {
					t.Fatalf("%s, cols %d, row %d: model = %d, reduceIFMA = %d", name, cols, r, model[r], want)
				}
				if cols == n || cols%61 == 0 {
					var want uint64
					for k, xv := range x[:cols] {
						want = f.Add(want, f.Mul(row[k], xv))
					}
					if model[r] != want {
						t.Fatalf("%s, cols %d, row %d: model = %d, element-wise = %d", name, cols, r, model[r], want)
					}
				}
			}
			if hasIFMA() {
				var got [ifmaRows]uint64
				dotRows8(&got, a, stride, x[:cols])
				if got != model {
					t.Fatalf("%s, cols %d: dotRows8IFMA = %v, model = %v", name, cols, got, model)
				}
			}
		}
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

// BenchmarkPrimeDotRows times Prime.DotRows, the product kernel a device
// and matrix.MulVecInto run, at a device's 250×64 share of local_paper_seq,
// a 20×64 block and a 1000×256 block of fleet_large_seq. On an IFMA host the
// "rows8" case is the eight-row kernel and "rows1" the same product with
// useIFMA's DotRows forced to one DotVec per row, which is the kernel before
// the eight-row pass; elsewhere both are the block loop.
func BenchmarkPrimeDotRows(b *testing.B) {
	var f Prime
	rng := rand.New(rand.NewPCG(79, 83))
	for _, sh := range []struct{ rows, cols int }{{250, 64}, {20, 64}, {1000, 256}} {
		a, x := primeVec(rng, sh.rows*sh.cols), primeVec(rng, sh.cols)
		dst := make([]uint64, sh.rows)
		shape := strconv.Itoa(sh.rows) + "x" + strconv.Itoa(sh.cols)
		b.Run(shape+"/rows1", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := range dst {
					dst[r] = f.DotVec(a[r*sh.cols:(r+1)*sh.cols], x)
				}
			}
			dotSink = dst[0]
		})
		b.Run(shape+"/rows8", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.DotRows(dst, a, x)
			}
			dotSink = dst[0]
		})
	}
}

// dotSink keeps the benchmarked DotVec calls observable.
var dotSink uint64
