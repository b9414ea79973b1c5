package field

import "math/bits"

// Vector kernels: monomorphized inner loops for the three concrete fields.
//
// A per-element loop over the Field interface pays one dynamic call per
// element; for the hot paths (dot product, AXPY, element-wise add/sub) that
// cost dominates the arithmetic. Each field therefore carries slice kernels.
// DotRows, AddVecInto and SubVecInto are part of Field, so package matrix
// makes one interface call per row range and each row's DotVec is a static
// call; AXPYVec, which only GF256 and Real have, matrix finds by one
// interface assertion per product. The kernels are semantically exact: over
// Prime and GF256 they produce the identical canonical representatives the
// element-wise methods produce, and over Real they perform the identical
// float64 operations in the identical order (no fused multiply-add, no
// reassociation), so every kernel is bit-compatible with the per-element
// Add/Mul loop.
//
// Two loops sit below Go, both for the F_p dot product, which is the
// multiply-add the paper's cost model prices and most of a device's compute.
// On amd64 dotBlock runs a 64-element block in assembly (dot_amd64.s), where
// each element is one MULQ from memory into the same two 128-bit pairs the
// Go loop uses; the Go loop, dotBlockGeneric, is the path on every other
// GOARCH and the reference the assembly is tested against. On an amd64 CPU
// with AVX-512 IFMA, DotVec instead runs chunks of up to 1024 elements
// through dotIFMA, eight 52-bit multiply-adds per instruction, and leaves
// only a tail of under eight elements to dotBlock. Every path returns the
// same canonical residue.

// reduce128 reduces the 128-bit value hi·2^64 + lo modulo 2^61 − 1 to the
// canonical representative in [0, p). Because 2^61 ≡ 1 (mod p), the value
// splits into three 61-bit limbs whose sum is congruent to it.
func reduce128(hi, lo uint64) uint64 {
	s := (lo & Modulus) + ((hi<<3 | lo>>61) & Modulus) + hi>>58
	s = s>>61 + s&Modulus
	if s >= Modulus {
		s -= Modulus
	}
	return s
}

// reduceIFMA reduces dotIFMA's weight sums, w0 + w52·2⁵² + w104·2¹⁰⁴, to
// the canonical residue. Since 2¹⁰⁴ = 2⁶¹·2⁴³ ≡ 2⁴³ (mod p), the value is
// congruent to w0 + w52·2⁵² + w104·2⁴³, which is below 2¹¹⁷ and so fits the
// 128-bit pair reduce128 takes.
func reduceIFMA(w0, w52, w104 uint64) uint64 {
	lo, c := bits.Add64(w0, w52<<52, 0)
	hi := w52>>12 + c
	lo, c = bits.Add64(lo, w104<<43, 0)
	hi += w104>>21 + c
	return reduce128(hi, lo)
}

// dotBlockLen is the most elements dotBlock takes at once. A product of
// canonical residues is at most (p−1)² < 2^122, so a 128-bit (hi, lo) pair
// overflows only past 64 of them. Both block loops split a block over two
// pairs — the Go loop 32 and 32, the assembly at most 33 and 31 — so
// neither pair comes near that.
const dotBlockLen = 64

// useIFMA selects the IFMA kernel in DotVec. It is set once, from CPUID, and
// only the package's tests change it.
var useIFMA = hasIFMA()

// ifmaLanes is the element count of one IFMA pass, and ifmaChunkLen the
// most elements one dotIFMA call takes: its three weight sums stay below
// 3·n·2⁵², under 2⁶⁴ up to n = 1365 (dot_amd64.s).
const (
	ifmaLanes    = 8
	ifmaChunkLen = 1024
)

// DotVec returns Σ a[i]·x[i] mod p over min(len(a), len(x)) elements of
// canonical residues. It walks the vectors in blocks of at most dotBlockLen
// elements — chunks of up to ifmaChunkLen under IFMA — and combines the
// blocks' canonical partial sums with a conditional subtract, so the loop
// performs one reduction per accumulator per block instead of one per
// element. The result is the same canonical residue the element-wise
// Mul/Add loop produces.
func (f Prime) DotVec(a, x []uint64) uint64 {
	if len(x) < len(a) {
		a = a[:len(x)]
	}
	x = x[:len(a)]
	var sum uint64
	if useIFMA {
		for len(a) >= ifmaLanes {
			n := min(len(a), ifmaChunkLen) &^ (ifmaLanes - 1)
			sum = f.Add(sum, reduceIFMA(dotIFMA(a[:n], x[:n])))
			a, x = a[n:], x[n:]
		}
		if len(a) == 0 {
			return sum
		}
		return f.Add(sum, dotBlock(a, x))
	}
	for len(a) > dotBlockLen {
		sum = f.Add(sum, dotBlock(a[:dotBlockLen], x[:dotBlockLen]))
		a, x = a[dotBlockLen:], x[dotBlockLen:]
	}
	return f.Add(sum, dotBlock(a, x))
}

// DotRows implements Field: dst[i] is DotVec of row i of a against x.
func (f Prime) DotRows(dst, a, x []uint64) {
	n := len(x)
	for i := range dst {
		dst[i] = f.DotVec(a[i*n:(i+1)*n], x)
	}
}

// dotBlockGeneric returns Σ a[i]·x[i] mod p for equal-length slices of at
// most dotBlockLen canonical residues; dotBlock is this loop, in assembly on
// amd64. It accumulates the raw 128-bit products — one MULQ, one ADDQ, one
// ADCQ per element, no per-element fold — into two independent (hi, lo)
// pairs, which breaks the carry chain; each pair takes every other element
// and is reduced exactly once. It is a function of its own so the loop's
// eight live words plus MULQ's fixed AX/DX stay in registers.
func dotBlockGeneric(a, x []uint64) uint64 {
	var h0, l0, h1, l1, c uint64
	x = x[:len(a)]
	i := 1
	for ; i < len(a); i += 2 {
		ph, pl := bits.Mul64(a[i-1], x[i-1])
		l0, c = bits.Add64(l0, pl, 0)
		h0, _ = bits.Add64(h0, ph, c)
		ph, pl = bits.Mul64(a[i], x[i])
		l1, c = bits.Add64(l1, pl, 0)
		h1, _ = bits.Add64(h1, ph, c)
	}
	if i == len(a) { // odd length: the last element is still to add
		ph, pl := bits.Mul64(a[i-1], x[i-1])
		l1, c = bits.Add64(l1, pl, 0)
		h1, _ = bits.Add64(h1, ph, c)
	}
	return Prime{}.Add(reduce128(h0, l0), reduce128(h1, l1))
}

// Prime has no AXPYVec on purpose: matrix.MulInto takes the i-k-j AXPY
// route for any field that has one, and F_p products run faster as DotRows
// over a transposed b (matrix's TestMulIntoRoutePinned holds this).

// AddVecInto sets dst[i] = a[i] + b[i] mod p over the shortest of the three
// lengths (package matrix always passes equal ones).
func (Prime) AddVecInto(dst, a, b []uint64) {
	n := min(len(dst), len(a), len(b))
	dst, a, b = dst[:n], a[:n], b[:n]
	for i, av := range a {
		s := av + b[i]
		if s >= Modulus {
			s -= Modulus
		}
		dst[i] = s
	}
}

// SubVecInto sets dst[i] = a[i] − b[i] mod p.
func (Prime) SubVecInto(dst, a, b []uint64) {
	n := min(len(dst), len(a), len(b))
	dst, a, b = dst[:n], a[:n], b[:n]
	for i, av := range a {
		bv := b[i]
		if av >= bv {
			dst[i] = av - bv
		} else {
			dst[i] = av + Modulus - bv
		}
	}
}

// gf256Mul is the full 64 KiB multiplication table for GF(2^8), built once
// at startup from the exp/log tables. Row s is the multiplication-by-s map,
// which turns the AXPY inner loop into one table lookup and one XOR per
// element with no zero-checks.
var gf256Mul = buildGF256MulTable()

func buildGF256MulTable() *[256][256]byte {
	t := &[256][256]byte{}
	var f GF256
	for a := 1; a < 256; a++ {
		for b := a; b < 256; b++ {
			p := f.Mul(byte(a), byte(b))
			t[a][b] = p
			t[b][a] = p
		}
	}
	return t
}

// DotVec returns Σ a[i]·x[i] over GF(2^8) (sum = XOR).
func (GF256) DotVec(a, x []byte) byte {
	if len(x) < len(a) {
		a = a[:len(x)]
	}
	x = x[:len(a)]
	var acc byte
	for i, av := range a {
		acc ^= gf256Mul[av][x[i]]
	}
	return acc
}

// DotRows implements Field: dst[i] is DotVec of row i of a against x.
func (f GF256) DotRows(dst, a, x []byte) {
	n := len(x)
	for i := range dst {
		dst[i] = f.DotVec(a[i*n:(i+1)*n], x)
	}
}

// AXPYVec performs dst[i] ^= s·src[i] over GF(2^8) using the s-row of the
// multiplication table.
func (GF256) AXPYVec(dst []byte, s byte, src []byte) {
	if s == 0 {
		return
	}
	if len(src) < len(dst) {
		dst = dst[:len(src)]
	}
	src = src[:len(dst)]
	row := &gf256Mul[s]
	for i, sv := range src {
		dst[i] ^= row[sv]
	}
}

// AddVecInto sets dst[i] = a[i] + b[i] = a[i] XOR b[i].
func (GF256) AddVecInto(dst, a, b []byte) {
	n := min(len(dst), len(a), len(b))
	dst, a, b = dst[:n], a[:n], b[:n]
	for i, av := range a {
		dst[i] = av ^ b[i]
	}
}

// SubVecInto is AddVecInto: subtraction is addition in characteristic 2.
func (f GF256) SubVecInto(dst, a, b []byte) { f.AddVecInto(dst, a, b) }

// DotVec returns Σ a[i]·x[i] over float64, accumulating left to right with
// each product explicitly rounded to float64 (the conversion forbids the
// compiler from fusing into FMA), so the result is bit-identical to the
// element-wise Add/Mul sequence on every architecture.
func (Real) DotVec(a, x []float64) float64 {
	if len(x) < len(a) {
		a = a[:len(x)]
	}
	x = x[:len(a)]
	var acc float64
	for i, av := range a {
		acc += float64(av * x[i])
	}
	return acc
}

// DotRows implements Field: dst[i] is DotVec of row i of a against x.
func (f Real) DotRows(dst, a, x []float64) {
	n := len(x)
	for i := range dst {
		dst[i] = f.DotVec(a[i*n:(i+1)*n], x)
	}
}

// AXPYVec performs dst[i] += s·src[i] over float64, with the product
// explicitly rounded (no FMA) to stay bit-identical to the element-wise
// Add/Mul loop.
func (Real) AXPYVec(dst []float64, s float64, src []float64) {
	if len(src) < len(dst) {
		dst = dst[:len(src)]
	}
	src = src[:len(dst)]
	for i, sv := range src {
		dst[i] += float64(s * sv)
	}
}

// AddVecInto sets dst[i] = a[i] + b[i].
func (Real) AddVecInto(dst, a, b []float64) {
	n := min(len(dst), len(a), len(b))
	dst, a, b = dst[:n], a[:n], b[:n]
	for i, av := range a {
		dst[i] = av + b[i]
	}
}

// SubVecInto sets dst[i] = a[i] − b[i].
func (Real) SubVecInto(dst, a, b []float64) {
	n := min(len(dst), len(a), len(b))
	dst, a, b = dst[:n], a[:n], b[:n]
	for i, av := range a {
		dst[i] = av - b[i]
	}
}
