// Package quant bridges real-valued workloads into the prime field.
//
// Information-theoretic security needs uniformly random field elements, so
// the security-critical coding runs over F_p — but the paper's motivating
// workloads (model weights, §I) are real-valued. The standard bridge in
// coded computing is fixed-point quantization: embed x ↦ round(x·2^frac) as
// a centered residue, run the whole encode/compute/decode pipeline exactly
// in F_p, and scale back at the user. The result equals the fixed-point
// product exactly — no coding noise is added on top of quantization error —
// and every coded row is a uniform field element, so Definition 2 holds
// verbatim.
//
// Correctness requires that no intermediate dot product overflows the
// centered range (−p/2, p/2). The Quantizer exposes the static bound and
// checks it against the actual workload shape.
package quant

import (
	"errors"
	"fmt"
	"math"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// ErrOverflow is returned when a value cannot be represented, or a workload
// could overflow the field's centered range.
var ErrOverflow = errors.New("quant: fixed-point overflow")

// Quantizer converts between float64 and centered fixed-point residues in
// F_p with FracBits fractional bits.
type Quantizer struct {
	// FracBits is the number of fractional bits; the scale is 2^FracBits.
	FracBits uint
}

// NewQuantizer validates the precision. FracBits must leave headroom in the
// 61-bit modulus: values are bounded by MaxAbs and products accumulate.
func NewQuantizer(fracBits uint) (Quantizer, error) {
	if fracBits == 0 || fracBits > 28 {
		return Quantizer{}, fmt.Errorf("quant: fracBits = %d outside [1, 28]", fracBits)
	}
	return Quantizer{FracBits: fracBits}, nil
}

// Scale returns 2^FracBits.
func (q Quantizer) Scale() float64 { return math.Ldexp(1, int(q.FracBits)) }

// half is the centered-range boundary ⌊p/2⌋.
const half = field.Modulus / 2

// Quantize embeds v: round(v·2^frac) as a centered residue (negatives map
// to p − |·|). It errors when |v|·2^frac exceeds the centered range.
func (q Quantizer) Quantize(v float64) (uint64, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%w: value %g", ErrOverflow, v)
	}
	scaled := math.Round(v * q.Scale())
	if scaled > float64(half) || scaled < -float64(half) {
		return 0, fmt.Errorf("%w: value %g at %d fractional bits", ErrOverflow, v, q.FracBits)
	}
	if scaled >= 0 {
		return uint64(scaled), nil
	}
	return field.Modulus - uint64(-scaled), nil
}

// Dequantize decodes a centered residue back to float64 with the given
// number of accumulated fractional bits (FracBits for values, 2·FracBits
// for single products and dot products).
func (q Quantizer) Dequantize(r uint64, fracBits uint) float64 {
	var signed float64
	if r > half {
		signed = -float64(field.Modulus - r)
	} else {
		signed = float64(r)
	}
	return math.Ldexp(signed, -int(fracBits))
}

// QuantizeVec embeds a float vector.
func (q Quantizer) QuantizeVec(v []float64) ([]uint64, error) {
	out := make([]uint64, len(v))
	for i, x := range v {
		r, err := q.Quantize(x)
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		out[i] = r
	}
	return out, nil
}

// QuantizeMatrix embeds a float matrix.
func (q Quantizer) QuantizeMatrix(a *matrix.Dense[float64]) (*matrix.Dense[uint64], error) {
	out := matrix.New[uint64](a.Rows(), a.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			r, err := q.Quantize(a.At(i, j))
			if err != nil {
				return nil, fmt.Errorf("entry (%d,%d): %w", i, j, err)
			}
			out.Set(i, j, r)
		}
	}
	return out, nil
}

// DequantizeDot decodes the result of a dot product of two quantized
// vectors: the fixed-point values carry 2·FracBits fractional bits.
func (q Quantizer) DequantizeDot(r uint64) float64 {
	return q.Dequantize(r, 2*q.FracBits)
}

// DequantizeDotVec decodes a vector of dot-product results (e.g. a decoded
// A·x).
func (q Quantizer) DequantizeDotVec(rs []uint64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = q.DequantizeDot(r)
	}
	return out
}

// CheckMatVec verifies statically that computing A·x cannot overflow the
// centered range: l·maxA·maxX·2^(2·frac) must stay below p/2, where maxA and
// maxX bound the absolute values of A's and x's entries. Call it before
// Deploying a quantized workload.
func (q Quantizer) CheckMatVec(l int, maxA, maxX float64) error {
	if l < 1 || maxA < 0 || maxX < 0 {
		return fmt.Errorf("quant: invalid bound arguments l=%d maxA=%g maxX=%g", l, maxA, maxX)
	}
	bound := float64(l) * math.Ceil(maxA*q.Scale()) * math.Ceil(maxX*q.Scale())
	if bound >= float64(half) {
		return fmt.Errorf("%w: worst-case |A·x| entry %.3g exceeds p/2 ≈ %.3g (reduce fracBits or scale the operands down)",
			ErrOverflow, bound, float64(half))
	}
	return nil
}

// MaxAbs returns the largest absolute entry of a float matrix; a convenience
// for CheckMatVec.
func MaxAbs(a *matrix.Dense[float64]) float64 {
	maxVal := 0.0
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if v := math.Abs(a.At(i, j)); v > maxVal {
				maxVal = v
			}
		}
	}
	return maxVal
}

// MaxAbsVec returns the largest absolute entry of a float vector.
func MaxAbsVec(v []float64) float64 {
	maxVal := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > maxVal {
			maxVal = a
		}
	}
	return maxVal
}
