package field

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzPrimeArithmetic cross-checks the Mersenne-reduction multiplication
// against a shift-and-add reference and exercises the ring axioms on
// arbitrary residues.
func FuzzPrimeArithmetic(fz *testing.F) {
	fz.Add(uint64(0), uint64(0))
	fz.Add(uint64(1), Modulus-1)
	fz.Add(Modulus-1, Modulus-1)
	fz.Add(uint64(1)<<60, uint64(2))
	fz.Add(uint64(123456789), uint64(987654321))
	fz.Fuzz(func(t *testing.T, a, b uint64) {
		f := Prime{}
		a %= Modulus
		b %= Modulus

		slowMul := func(x, y uint64) uint64 {
			var acc uint64
			for y > 0 {
				if y&1 == 1 {
					acc += x
					if acc >= Modulus {
						acc -= Modulus
					}
				}
				x += x
				if x >= Modulus {
					x -= Modulus
				}
				y >>= 1
			}
			return acc
		}
		if got, want := f.Mul(a, b), slowMul(a, b); got != want {
			t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
		}
		if f.Add(a, b) != f.Add(b, a) {
			t.Fatal("Add not commutative")
		}
		if f.Sub(f.Add(a, b), b) != a {
			t.Fatal("(a+b)-b != a")
		}
		if f.Add(a, f.Neg(a)) != 0 {
			t.Fatal("a + (-a) != 0")
		}
		if a != 0 {
			inv, err := f.Inv(a)
			if err != nil {
				t.Fatalf("Inv(%d): %v", a, err)
			}
			if f.Mul(a, inv) != 1 {
				t.Fatalf("a·a⁻¹ != 1 for a=%d", a)
			}
		}
	})
}

// FuzzPrimeDotVec cross-checks the raw-accumulation dot product against the
// element-wise Mul/Add loop. The input bytes become two vectors of canonical
// residues (16 bytes per element pair, each word reduced mod p); the seeds
// are the all-(p−1) vectors at every edge of DotVec's 8-lane pass,
// 64-element block and 1024-element IFMA chunk. DotVec runs on each path the
// host has (the block loop, and the IFMA kernel where hasIFMA). Both block
// loops — dotBlock, in assembly on amd64, and the Go dotBlockGeneric — are
// also checked on the first block, so the Go loop stays fuzzed on hosts
// that never run it through DotVec.
func FuzzPrimeDotVec(fz *testing.F) {
	worst := binary.LittleEndian.AppendUint64(nil, Modulus-1)
	for _, n := range []int{0, 1, 2, 7, 8, 9, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025} {
		fz.Add(bytes.Repeat(worst, 2*n))
	}
	fz.Add([]byte("an odd-length tail is ignored"))
	fz.Fuzz(func(t *testing.T, data []byte) {
		f := Prime{}
		n := len(data) / 16
		a, x := make([]uint64, n), make([]uint64, n)
		var want uint64
		for i := range a {
			a[i] = binary.LittleEndian.Uint64(data[16*i:]) % Modulus
			x[i] = binary.LittleEndian.Uint64(data[16*i+8:]) % Modulus
			want = f.Add(want, f.Mul(a[i], x[i]))
		}
		saved := useIFMA
		defer func() { useIFMA = saved }()
		for _, ifma := range []bool{false, true} {
			if ifma && !hasIFMA() {
				continue
			}
			useIFMA = ifma
			if got := f.DotVec(a, x); got != want {
				t.Fatalf("DotVec(len %d, ifma %v) = %d, want %d", n, ifma, got, want)
			}
		}
		k := min(n, dotBlockLen)
		var wantBlock uint64
		for i := range k {
			wantBlock = f.Add(wantBlock, f.Mul(a[i], x[i]))
		}
		if got := dotBlock(a[:k], x[:k]); got != wantBlock {
			t.Fatalf("dotBlock(len %d) = %d, want %d", k, got, wantBlock)
		}
		if got := dotBlockGeneric(a[:k], x[:k]); got != wantBlock {
			t.Fatalf("dotBlockGeneric(len %d) = %d, want %d", k, got, wantBlock)
		}
	})
}

// FuzzPrimeDotRows cross-checks Prime.DotRows, on each path the host has,
// against dotVecGeneric per row. The fuzzer picks the row count (up to 40),
// the column count (up to 2100, so past two IFMA chunks), how many elements
// into its slice the matrix starts, and the operand words: element i of the
// matrix and of x is word i of data, cycled and reduced mod p. The seeds
// are all-(p−1) operands at the shapes where the eight-row kernel's blocks,
// masked tail and chunks begin and end.
func FuzzPrimeDotRows(fz *testing.F) {
	worst := binary.LittleEndian.AppendUint64(nil, Modulus-1)
	for _, sh := range [][2]uint16{{1, 1}, {7, 8}, {8, 8}, {8, 13}, {9, 64}, {16, 1023}, {17, 1024}, {8, 1025}, {24, 2049}, {33, 7}} {
		fz.Add(sh[0], sh[1], uint8(0), bytes.Repeat(worst, 3))
	}
	fz.Add(uint16(9), uint16(100), uint8(1), []byte("uniform-looking words, cycled over the matrix"))
	fz.Fuzz(func(t *testing.T, rows, cols uint16, off uint8, data []byte) {
		r, n, o := int(rows%41), int(cols%2101), int(off%8)
		words := len(data) / 8
		elem := func(i int) uint64 {
			if words == 0 {
				return Modulus - 1
			}
			return binary.LittleEndian.Uint64(data[8*(i%words):]) % Modulus
		}
		a, x := make([]uint64, o+r*n)[o:], make([]uint64, n)
		for i := range a {
			a[i] = elem(i)
		}
		for i := range x {
			x[i] = elem(r*n + i)
		}
		saved := useIFMA
		defer func() { useIFMA = saved }()
		for _, ifma := range []bool{false, true} {
			if ifma && !hasIFMA() {
				continue
			}
			useIFMA = ifma
			dst := make([]uint64, r)
			Prime{}.DotRows(dst, a, x)
			for i, got := range dst {
				if want := dotVecGeneric(a[i*n:(i+1)*n], x); got != want {
					t.Fatalf("DotRows %dx%d (offset %d, ifma %v): row %d = %d, dotVecGeneric = %d", r, n, o, ifma, i, got, want)
				}
			}
		}
	})
}

// FuzzGF256Arithmetic exercises the byte field's table-based operations on
// arbitrary pairs.
func FuzzGF256Arithmetic(fz *testing.F) {
	fz.Add(byte(0), byte(0))
	fz.Add(byte(1), byte(255))
	fz.Add(byte(0x53), byte(0xCA))
	fz.Fuzz(func(t *testing.T, a, b byte) {
		f := GF256{}
		if f.Mul(a, b) != f.Mul(b, a) {
			t.Fatal("Mul not commutative")
		}
		if f.Add(a, b) != a^b {
			t.Fatal("Add must be XOR")
		}
		if a != 0 {
			inv, err := f.Inv(a)
			if err != nil {
				t.Fatalf("Inv(%d): %v", a, err)
			}
			if f.Mul(a, inv) != 1 {
				t.Fatalf("a·a⁻¹ != 1 for a=%d", a)
			}
			// Division must invert multiplication.
			q, err := f.Div(f.Mul(a, b), a)
			if err != nil {
				t.Fatal(err)
			}
			if q != b {
				t.Fatalf("(a·b)/a = %d, want %d", q, b)
			}
		}
	})
}
