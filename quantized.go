package scec

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"github.com/scec/scec/internal/quant"
)

// QuantizedDeployment wraps a prime-field Deployment of a quantized float
// matrix: callers keep working in float64 while the fleet computes exactly
// in F_p — so the coded rows are uniform field elements and Definition 2's
// information-theoretic security holds verbatim, unlike the float path
// where "uniformly random real" is ill-defined.
type QuantizedDeployment struct {
	// Deployment is the underlying exact deployment; its Plan, Audit, and
	// Cost describe this workload.
	*Deployment[uint64]
	q    quant.Quantizer
	l    int
	maxA float64
}

// DeployQuantized quantizes the float matrix a at fracBits fractional bits
// and deploys it over the prime field. maxX must bound the absolute value
// of every future input entry; it is checked now (against the static
// overflow bound of the 61-bit modulus) and again on every query. Options
// are forwarded to the underlying exact Deploy. To serve it from a fleet,
// re-bind the exact deployment, which every query goes through:
//
//	qd.Deployment, err = scec.Serve(qd.Deployment, cfg, opts...)
func DeployQuantized(a *Matrix[float64], fracBits uint, maxX float64, unitCosts []float64, rng *rand.Rand, opts ...DeployOption[uint64]) (*QuantizedDeployment, error) {
	q, err := quant.NewQuantizer(fracBits)
	if err != nil {
		return nil, err
	}
	maxA := quant.MaxAbs(a)
	if err := q.CheckMatVec(a.Cols(), maxA, maxX); err != nil {
		return nil, fmt.Errorf("scec: workload would overflow the field: %w", err)
	}
	aq, err := q.QuantizeMatrix(a)
	if err != nil {
		return nil, err
	}
	dep, err := Deploy(PrimeField(), aq, unitCosts, rng, opts...)
	if err != nil {
		return nil, err
	}
	return &QuantizedDeployment{Deployment: dep, q: q, l: a.Cols(), maxA: maxA}, nil
}

// ErrorBound is the worst-case |error| of one entry of MulVec or MulMat
// against the float product, for inputs whose entries are at most maxX in
// absolute value. Rounding puts every operand within δ = 2^−(fracBits+1) of
// its value, and the coding adds nothing, so a length-l dot product is off by
// at most l·((maxA+maxX)·δ + δ²), where maxA is the largest |entry| of A. The
// float reference's own rounding comes on top.
func (d *QuantizedDeployment) ErrorBound(maxX float64) float64 {
	delta := math.Ldexp(1, -int(d.q.FracBits)-1)
	return float64(d.l) * ((d.maxA+maxX)*delta + delta*delta)
}

// MulVec computes A·x through the fleet: x is quantized, the exact coded
// pipeline runs in F_p, and the result is scaled back to float64. The only
// error relative to the float product is the fixed-point quantization of
// the operands; the coding itself is exact.
func (d *QuantizedDeployment) MulVec(x []float64) ([]float64, error) {
	return d.MulVecContext(context.Background(), x)
}

// MulVecContext is MulVec bounded by ctx; a span carried in ctx continues
// into the exact pipeline's trace.
func (d *QuantizedDeployment) MulVecContext(ctx context.Context, x []float64) ([]float64, error) {
	if err := d.q.CheckMatVec(d.l, d.maxA, quant.MaxAbsVec(x)); err != nil {
		return nil, fmt.Errorf("scec: input would overflow the field: %w", err)
	}
	xq, err := d.q.QuantizeVec(x)
	if err != nil {
		return nil, err
	}
	yq, err := d.Deployment.MulVecContext(ctx, xq)
	if err != nil {
		return nil, err
	}
	return d.q.DequantizeDotVec(yq), nil
}

// MulMat computes A·X for an l×n float input matrix through the exact
// pipeline: X is quantized entrywise, the coded batch round runs in F_p,
// and every decoded dot product scales back to float64.
func (d *QuantizedDeployment) MulMat(x *Matrix[float64]) (*Matrix[float64], error) {
	return d.MulMatContext(context.Background(), x)
}

// MulMatContext is MulMat bounded by ctx; see MulVecContext.
func (d *QuantizedDeployment) MulMatContext(ctx context.Context, x *Matrix[float64]) (*Matrix[float64], error) {
	if err := d.q.CheckMatVec(d.l, d.maxA, quant.MaxAbs(x)); err != nil {
		return nil, fmt.Errorf("scec: input would overflow the field: %w", err)
	}
	xq, err := d.q.QuantizeMatrix(x)
	if err != nil {
		return nil, err
	}
	yq, err := d.Deployment.MulMatContext(ctx, xq)
	if err != nil {
		return nil, err
	}
	y := NewMatrix[float64](yq.Rows(), yq.Cols())
	for i := 0; i < yq.Rows(); i++ {
		for j := 0; j < yq.Cols(); j++ {
			y.Set(i, j, d.q.DequantizeDot(yq.At(i, j)))
		}
	}
	return y, nil
}
