package quant

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(31, 37)) }

func mustQuantizer(t *testing.T, bits uint) Quantizer {
	t.Helper()
	q, err := NewQuantizer(bits)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestNewQuantizerValidation(t *testing.T) {
	if _, err := NewQuantizer(0); err == nil {
		t.Error("0 fractional bits should be rejected")
	}
	if _, err := NewQuantizer(29); err == nil {
		t.Error("29 fractional bits should be rejected")
	}
	if _, err := NewQuantizer(16); err != nil {
		t.Errorf("16 bits rejected: %v", err)
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	q := mustQuantizer(t, 16)
	for _, v := range []float64{0, 1, -1, 0.5, -0.5, 3.14159, -2.71828, 1000.25, -999.75} {
		r, err := q.Quantize(v)
		if err != nil {
			t.Fatalf("Quantize(%g): %v", v, err)
		}
		got := q.Dequantize(r, q.FracBits)
		if math.Abs(got-v) > 1.0/q.Scale() {
			t.Fatalf("round trip %g -> %g (err %g)", v, got, got-v)
		}
	}
}

func TestQuantizeExactDyadics(t *testing.T) {
	// Values representable at the scale round-trip exactly.
	q := mustQuantizer(t, 8)
	for _, v := range []float64{0.25, -0.25, 1.5, -12.0078125} {
		r, err := q.Quantize(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := q.Dequantize(r, q.FracBits); got != v {
			t.Fatalf("dyadic %g -> %g", v, got)
		}
	}
}

func TestQuantizeRejectsBadValues(t *testing.T) {
	q := mustQuantizer(t, 16)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e18} {
		if _, err := q.Quantize(v); !errors.Is(err, ErrOverflow) {
			t.Errorf("Quantize(%g) err = %v, want ErrOverflow", v, err)
		}
	}
}

// TestQuickSignedEmbedding: quantization is a homomorphism for addition of
// in-range values — (a+b) quantized equals quantized a + quantized b in F_p.
func TestQuickSignedEmbedding(t *testing.T) {
	q := mustQuantizer(t, 12)
	f := field.Prime{}
	check := func(aRaw, bRaw int16) bool {
		a := float64(aRaw) / 64
		b := float64(bRaw) / 64
		ra, err := q.Quantize(a)
		if err != nil {
			return false
		}
		rb, err := q.Quantize(b)
		if err != nil {
			return false
		}
		sum, err := q.Quantize(a + b)
		if err != nil {
			return false
		}
		return f.Add(ra, rb) == sum
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDequantizeDotMatchesFloatProduct(t *testing.T) {
	q := mustQuantizer(t, 16)
	f := field.Prime{}
	rng := testRNG()
	const l = 32
	a := make([]float64, l)
	x := make([]float64, l)
	for i := range a {
		a[i] = rng.Float64()*4 - 2
		x[i] = rng.Float64()*4 - 2
	}
	if err := q.CheckMatVec(l, 2, 2); err != nil {
		t.Fatal(err)
	}
	qa, err := q.QuantizeVec(a)
	if err != nil {
		t.Fatal(err)
	}
	qx, err := q.QuantizeVec(x)
	if err != nil {
		t.Fatal(err)
	}
	acc := f.Zero()
	want := 0.0
	for i := range qa {
		acc = f.Add(acc, f.Mul(qa[i], qx[i]))
		want += a[i] * x[i]
	}
	got := q.DequantizeDot(acc)
	// Quantization error: each operand off by ≤ 2^-17, products accumulate.
	if math.Abs(got-want) > float64(l)*4.0/q.Scale() {
		t.Fatalf("dot = %g, want %g", got, want)
	}
}

func TestCheckMatVec(t *testing.T) {
	q := mustQuantizer(t, 16)
	if err := q.CheckMatVec(1000, 1, 1); err != nil {
		t.Fatalf("modest workload rejected: %v", err)
	}
	if err := q.CheckMatVec(1<<30, 1e4, 1e4); !errors.Is(err, ErrOverflow) {
		t.Fatalf("huge workload err = %v, want ErrOverflow", err)
	}
	if err := q.CheckMatVec(0, 1, 1); err == nil {
		t.Error("l = 0 should be rejected")
	}
}

// TestQuantizedSecurePipeline is the point of the package: a float matrix
// pushed through the exact F_p coded pipeline decodes to the fixed-point
// product, within quantization error of the float product.
func TestQuantizedSecurePipeline(t *testing.T) {
	fR := field.Real{}
	fP := field.Prime{}
	rng := testRNG()
	const m, l, r = 20, 16, 5

	q := mustQuantizer(t, 16)
	aF := matrix.Random[float64](fR, rng, m, l) // standard normals
	xF := matrix.RandomVec[float64](fR, rng, l)
	if err := q.CheckMatVec(l, MaxAbs(aF), MaxAbsVec(xF)); err != nil {
		t.Fatal(err)
	}

	aQ, err := q.QuantizeMatrix(aF)
	if err != nil {
		t.Fatal(err)
	}
	xQ, err := q.QuantizeVec(xF)
	if err != nil {
		t.Fatal(err)
	}

	s, err := coding.NewStructured(fP, m, r)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := s.Encode(aQ, rng)
	if err != nil {
		t.Fatal(err)
	}
	yQ, err := s.Decode(enc.ComputeAll(fP, xQ))
	if err != nil {
		t.Fatal(err)
	}
	got := q.DequantizeDotVec(yQ)
	want := matrix.MulVec[float64](fR, aF, xF)
	for i := range got {
		if math.Abs(got[i]-want[i]) > float64(l)*8.0/q.Scale() {
			t.Fatalf("entry %d: %g vs %g", i, got[i], want[i])
		}
	}

	// And the coded pipeline added no error beyond quantization: decode must
	// equal the plain fixed-point product bit for bit.
	exact := matrix.MulVec[uint64](fP, aQ, xQ)
	if !matrix.VecEqual[uint64](fP, yQ, exact) {
		t.Fatal("coded pipeline disagreed with the exact fixed-point product")
	}
}

func TestQuantizeMatrixPropagatesErrors(t *testing.T) {
	q := mustQuantizer(t, 16)
	bad := matrix.New[float64](1, 1)
	bad.Set(0, 0, math.Inf(1))
	if _, err := q.QuantizeMatrix(bad); !errors.Is(err, ErrOverflow) {
		t.Fatalf("err = %v, want ErrOverflow", err)
	}
	if _, err := q.QuantizeVec([]float64{math.NaN()}); !errors.Is(err, ErrOverflow) {
		t.Fatalf("vec err = %v, want ErrOverflow", err)
	}
}

func TestMaxAbsHelpers(t *testing.T) {
	m := matrix.FromRows([][]float64{{1, -3}, {2, 0.5}})
	if MaxAbs(m) != 3 {
		t.Fatalf("MaxAbs = %g, want 3", MaxAbs(m))
	}
	if MaxAbsVec([]float64{-7, 2}) != 7 {
		t.Fatalf("MaxAbsVec wrong")
	}
	if MaxAbsVec(nil) != 0 {
		t.Fatal("empty MaxAbsVec should be 0")
	}
}
