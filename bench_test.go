// Benchmarks regenerating the paper's evaluation artifacts.
//
// Figure benches (BenchmarkFig2a…2e) time one full sweep of the matching
// panel at a reduced instance count; `go run ./cmd/experiments` performs the
// full 1000-instance reproduction and writes the series the paper plots.
// The remaining benches measure the pipeline pieces the paper argues about:
// task-allocation throughput (TA1 vs TA2), encoding, the m-subtraction
// decoder vs general Gaussian elimination, per-device compute, and the
// plaintext-vs-Paillier gap behind the intro's case against homomorphic
// encryption.
package scec_test

import (
	cryptorand "crypto/rand"
	"math/rand/v2"
	"testing"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/alloc"
	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/experiments"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/he"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/workload"
)

// benchConfig shrinks the per-point instance count so one figure sweep fits
// a benchmark iteration; the sweep grids stay identical to the paper run.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Defaults.Instances = 25
	return cfg
}

func benchFigure(b *testing.B, run func(experiments.Config) (experiments.Result, error)) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkFig2a regenerates Fig. 2(a): total cost vs m under U(1, c_max).
func BenchmarkFig2a(b *testing.B) { benchFigure(b, experiments.Fig2a) }

// BenchmarkFig2b regenerates Fig. 2(b): total cost vs k.
func BenchmarkFig2b(b *testing.B) { benchFigure(b, experiments.Fig2b) }

// BenchmarkFig2c regenerates Fig. 2(c): total cost vs c_max.
func BenchmarkFig2c(b *testing.B) { benchFigure(b, experiments.Fig2c) }

// BenchmarkFig2d regenerates Fig. 2(d): total cost vs σ under N(μ, σ²).
func BenchmarkFig2d(b *testing.B) { benchFigure(b, experiments.Fig2d) }

// BenchmarkFig2e regenerates Fig. 2(e): total cost vs μ under N(μ, σ²).
func BenchmarkFig2e(b *testing.B) { benchFigure(b, experiments.Fig2e) }

// paperInstance samples one §V-default instance.
func paperInstance(seed uint64) alloc.Instance {
	rng := rand.New(rand.NewPCG(seed, 0xbe9c4))
	d := workload.PaperDefaults()
	return workload.Instance(rng, d.M, d.K, workload.Uniform{Max: d.CMax})
}

// BenchmarkTA1 measures the O(k) allocator at paper defaults (m=5000, k=25).
func BenchmarkTA1(b *testing.B) {
	in := paperInstance(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := alloc.TA1(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTA2 measures the O(m+k) allocator on the same instance; together
// with BenchmarkTA1 it quantifies the complexity gap §IV-C discusses.
func BenchmarkTA2(b *testing.B) {
	in := paperInstance(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := alloc.TA2(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowerBound measures the Theorem 1 bound computation.
func BenchmarkLowerBound(b *testing.B) {
	in := paperInstance(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := alloc.LowerBound(in); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPipeline sizes one mid-scale coded multiplication.
const (
	benchM = 512
	benchL = 256
	benchR = 128
)

func benchEncoding(b *testing.B) (field.Prime, *coding.Systematic[uint64], *matrix.Dense[uint64], *coding.Encoding[uint64], []uint64) {
	b.Helper()
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(3, 5))
	s, err := coding.NewStructured(f, benchM, benchR)
	if err != nil {
		b.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, benchM, benchL)
	enc, err := s.Encode(a, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := matrix.RandomVec[uint64](f, rng, benchL)
	return f, s, a, enc, x
}

// BenchmarkEncode measures the cloud-side structured encoder (O((m+r)·l)).
func BenchmarkEncode(b *testing.B) {
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(3, 5))
	s, err := coding.NewStructured(f, benchM, benchR)
	if err != nil {
		b.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, benchM, benchL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encode(a, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollusionEncode times the t-collusion (Cauchy) encoder at
// m=1000, l=64, t=2 over ten devices of 125 rows (r=250): the first r coded
// rows copy R, and every later row is its row of the Cauchy block C times R
// plus one row of A.
func BenchmarkCollusionEncode(b *testing.B) {
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(3, 5))
	rows, r, err := coding.UniformCollusionRows(1000, 2, 125)
	if err != nil {
		b.Fatal(err)
	}
	s, err := coding.NewCollusion[uint64](f, 1000, r, 2, rows)
	if err != nil {
		b.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 1000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encode(a, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewCollusion times building the t = 2 Cauchy code of
// BenchmarkCollusionEncode (m=1000, r=250): almost all of it is the m·r
// Cauchy block, whose m+r−1 distinct node differences are each inverted
// once.
func BenchmarkNewCollusion(b *testing.B) {
	f := field.Prime{}
	rows, r, err := coding.UniformCollusionRows(1000, 2, 125)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := coding.NewCollusion[uint64](f, 1000, r, 2, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceCompute measures one device's share: B_j·T times x.
func BenchmarkDeviceCompute(b *testing.B) {
	f, _, _, enc, x := benchEncoding(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = matrix.MulVec(f, enc.Blocks[0], x)
	}
}

// BenchmarkDecodeStructured measures the paper's m-subtraction decoder.
func BenchmarkDecodeStructured(b *testing.B) {
	f, s, _, enc, x := benchEncoding(b)
	y := enc.ComputeAll(f, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decode(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeGaussian measures the general O((m+r)³) decoder the
// structured design avoids — the ablation behind §IV-B's decoding-complexity
// claim. Run next to BenchmarkDecodeStructured.
func BenchmarkDecodeGaussian(b *testing.B) {
	f, s, _, enc, x := benchEncoding(b)
	y := enc.ComputeAll(f, x)
	bm := s.CoefficientMatrix()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coding.DecodeGaussian[uint64](f, bm, s.M(), y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalMatVec is the no-offload baseline: the user multiplies A·x
// itself (m·l multiplications), versus m subtractions after decoding.
func BenchmarkLocalMatVec(b *testing.B) {
	f, _, a, _, x := benchEncoding(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = matrix.MulVec[uint64](f, a, x)
	}
}

// BenchmarkDeployEndToEnd measures the full library pipeline: allocate,
// encode, compute every device, decode.
func BenchmarkDeployEndToEnd(b *testing.B) {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(7, 9))
	a := scec.RandomMatrix(f, rng, benchM, benchL)
	costs := make([]float64, 16)
	for j := range costs {
		costs[j] = 1 + 4*rng.Float64()
	}
	x := scec.RandomVector(f, rng, benchL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dep, err := scec.Deploy(f, a, costs, rng)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dep.MulVec(x); err != nil {
			b.Fatal(err)
		}
	}
}

// heDim sizes the homomorphic-encryption comparison. The paper's intro
// quotes a 628×628 HElib measurement; Paillier at that size would take
// minutes per op, so the bench uses a 16×16 block — the per-entry ratio is
// what matters.
const heDim = 16

// BenchmarkHEPlaintextMatVec is the plaintext side of the §I comparison.
func BenchmarkHEPlaintextMatVec(b *testing.B) {
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(11, 13))
	a := matrix.Random[uint64](f, rng, heDim, heDim)
	x := matrix.RandomVec[uint64](f, rng, heDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = matrix.MulVec[uint64](f, a, x)
	}
}

// BenchmarkHEPaillierMatVec is the encrypted side: Enc(A)·x evaluated
// homomorphically with 512-bit primes. Compare ns/op against
// BenchmarkHEPlaintextMatVec to reproduce the ≥10³× gap.
func BenchmarkHEPaillierMatVec(b *testing.B) {
	sk, err := he.GenerateKey(cryptorand.Reader, 512)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 13))
	a := make([][]int64, heDim)
	x := make([]int64, heDim)
	for i := range a {
		a[i] = make([]int64, heDim)
		for j := range a[i] {
			a[i][j] = int64(rng.Uint64N(1 << 30))
		}
		x[i] = int64(rng.Uint64N(1 << 30))
	}
	encA, err := sk.EncryptMatrix(cryptorand.Reader, a)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sk.MulVecCipher(encA, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollusionDecode measures the Cauchy code's decode, one m×r
// row-kernel product C·y[:r] and one vector subtraction — the price of
// collusion resistance relative to BenchmarkDecodeStructured.
func BenchmarkCollusionDecode(b *testing.B) {
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(17, 23))
	const m, t, w = 96, 2, 16
	rows, r, err := coding.UniformCollusionRows(m, t, w)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := coding.NewCollusion[uint64](f, m, r, t, rows)
	if err != nil {
		b.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, m, benchL)
	enc, err := cs.Encode(a, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := matrix.RandomVec[uint64](f, rng, benchL)
	y := enc.ComputeAll(f, x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cs.Decode(y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolyMaskEncode and BenchmarkPolyMaskDevice measure the
// related-work comparison scheme: polynomial masking stores and multiplies
// the whole m×l matrix on every device, versus ≤ r rows under MCSCEC.
func BenchmarkPolyMaskEncode(b *testing.B) {
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(19, 23))
	s, err := coding.NewPolyMask[uint64](f, benchM, 1, 4)
	if err != nil {
		b.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, benchM, benchL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Encode(a, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPolyMaskDevice is one device's share under polynomial masking —
// compare against BenchmarkDeviceCompute (the MCSCEC device does r/m of the
// work).
func BenchmarkPolyMaskDevice(b *testing.B) {
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(19, 23))
	s, err := coding.NewPolyMask[uint64](f, benchM, 1, 4)
	if err != nil {
		b.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, benchM, benchL)
	enc, err := s.Encode(a, rng)
	if err != nil {
		b.Fatal(err)
	}
	x := matrix.RandomVec[uint64](f, rng, benchL)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = enc.ComputeDevice(0, x)
	}
}

// BenchmarkSecurityAudit measures the verifier a deployment runs before
// shipping blocks: rank-based per-device leakage checks.
func BenchmarkSecurityAudit(b *testing.B) {
	f := field.Prime{}
	s, err := coding.NewStructured(f, 64, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
