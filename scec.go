// Package scec is a Go implementation of Secure Coded Edge Computing: the
// jointly optimal task allocation and linear coding design of
//
//	Cao, Wang, Wang, Lu, Zhou, Jukan, Zhao — "Optimal Task Allocation and
//	Coding Design for Secure Coded Edge Computing", IEEE ICDCS 2019.
//
// The library solves the Minimum Cost Secure Coded Edge Computing (MCSCEC)
// problem for distributed matrix–vector multiplication y = A·x on untrusted
// edge devices: the confidential matrix A is linearly coded with r uniformly
// random rows, split across the cheapest subset of devices, and the user
// decodes the exact result with m subtractions, while no single
// honest-but-curious device learns any linear combination of A's rows
// (information-theoretic security).
//
// # Quick start
//
//	f := scec.PrimeField()
//	rng := rand.New(rand.NewPCG(1, 2))
//	a := scec.RandomMatrix(f, rng, 1000, 64)       // the confidential matrix
//	costs := []float64{1.3, 2.1, 0.8, 1.7, 3.0}    // per-row device costs
//
//	dep, err := scec.Deploy(f, a, costs, rng)      // allocate + encode
//	// push dep.Encoding.Blocks[j] to device j, or compute in-process:
//	y, err := dep.MulVec(x)                        // y == A·x
//
// The subsystems are individually importable through this façade:
//
//   - task allocation & lower bound (Allocate, AllocateExhaustive,
//     LowerBound, the Baseline* functions),
//   - coding design (NewScheme, Encode, Decode, VerifyScheme),
//   - the collusion-resistant extension (NewCollusionScheme),
//   - the attack harness (AuditDevice),
//   - fields and dense matrices (PrimeField, GF256Field, RealField, Matrix).
package scec

import (
	"math/rand/v2"

	"github.com/scec/scec/internal/alloc"
	"github.com/scec/scec/internal/attack"
	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// Field is the arithmetic abstraction all coding runs over. Prime (exact,
// information-theoretically secure) is the recommended default and GF256
// serves compact byte-level coding; both deploy on every backend. Real
// deployments never leave the host (see RealField).
type Field[E comparable] = field.Field[E]

// Matrix is a dense row-major matrix over field elements E.
type Matrix[E comparable] = matrix.Dense[E]

// Instance is a task-allocation problem: m confidential rows and the
// per-row unit cost of every candidate edge device (see UnitCost for how
// storage/compute/communication prices fold into one number).
type Instance = alloc.Instance

// Plan is a solved task allocation: the number of random rows R, the number
// of participating devices I, and each device's row count.
type Plan = alloc.Plan

// Assignment is one device's share of a Plan.
type Assignment = alloc.Assignment

// Scheme is the structured linear coding design (Eq. (8) of the paper) for
// a given (m, r): availability and per-device security hold by construction
// (Theorem 3) and decoding costs m subtractions.
type Scheme = coding.Scheme

// Code is the scheme-agnostic coding contract every engine-selectable
// design satisfies: encode/decode (vector and batch), the per-device row
// layout, the recoverability threshold K, and the security level T. The
// Eq. (8) scheme (T = 1) and the Cauchy collusion design (arbitrary T)
// both implement it; Deploy selects between them via WithCollusion.
type Code[E comparable] = coding.Code[E]

// Encoding holds the per-device coded blocks B_j·T produced by Encode.
type Encoding[E comparable] = coding.Encoding[E]

// CollusionScheme is the future-work extension: a Cauchy-based design that
// stays secure when up to t devices pool their coded rows.
type CollusionScheme[E comparable] = coding.CollusionScheme[E]

// PrimeField returns arithmetic over F_p with p = 2^61 − 1, the recommended
// exact field for secure coded computing.
func PrimeField() Field[uint64] { return field.Prime{} }

// GF256Field returns arithmetic over GF(2^8) (AES polynomial).
func GF256Field() Field[byte] { return field.GF256{} }

// RealField returns float64 arithmetic with tolerance tol for comparisons
// (0 selects a default of 1e-9): the plaintext reference for float
// workloads. Its masks are not uniform, so a RealField deployment runs on the
// in-process kernels only; DeployQuantized serves float workloads anywhere.
func RealField(tol float64) Field[float64] { return field.Real{Tol: tol} }

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix[E comparable](rows, cols int) *Matrix[E] { return matrix.New[E](rows, cols) }

// MatrixFromRows builds a matrix from a slice of equal-length rows.
func MatrixFromRows[E comparable](rows [][]E) *Matrix[E] { return matrix.FromRows(rows) }

// RandomMatrix returns a rows×cols matrix with i.i.d. uniform entries.
func RandomMatrix[E comparable](f Field[E], rng *rand.Rand, rows, cols int) *Matrix[E] {
	return matrix.Random(f, rng, rows, cols)
}

// RandomVector returns a length-n vector with i.i.d. uniform entries.
func RandomVector[E comparable](f Field[E], rng *rand.Rand, n int) []E {
	return matrix.RandomVec(f, rng, n)
}

// MulVec returns A·x computed locally (the plaintext reference the coded
// pipeline is checked against).
func MulVec[E comparable](f Field[E], a *Matrix[E], x []E) []E {
	return matrix.MulVec(f, a, x)
}

// Mul returns the matrix product A·X computed locally.
func Mul[E comparable](f Field[E], a, x *Matrix[E]) *Matrix[E] {
	return matrix.Mul(f, a, x)
}

// MatrixEqual reports element-wise equality under the field's comparison
// (tolerance-based for RealField).
func MatrixEqual[E comparable](f Field[E], a, b *Matrix[E]) bool {
	return matrix.Equal(f, a, b)
}

// Allocate solves the MCSCEC task-allocation problem with the O(k) TA1
// algorithm; the result is cost-optimal (Theorem 4).
func Allocate(m int, unitCosts []float64) (Plan, error) {
	return alloc.TA1(Instance{M: m, Costs: unitCosts})
}

// AllocateExhaustive solves the same problem with the O(m+k) TA2 algorithm
// (Theorem 5); it always matches Allocate's cost and exists mainly for
// cross-validation and for fleets where k ≫ m.
func AllocateExhaustive(m int, unitCosts []float64) (Plan, error) {
	return alloc.TA2(Instance{M: m, Costs: unitCosts})
}

// LowerBound returns the Theorem 1 lower bound on any secure allocation's
// cost; Allocate attains it whenever (i*−1) divides m.
func LowerBound(m int, unitCosts []float64) (float64, error) {
	return alloc.LowerBound(Instance{M: m, Costs: unitCosts})
}

// Baseline allocators from the paper's evaluation, for comparison studies.
var (
	// BaselineWithoutSecurity spreads A over the i* cheapest devices with no
	// random rows — minimum cost, zero confidentiality.
	BaselineWithoutSecurity = alloc.TAWithoutSecurity
	// BaselineMaxNode uses the smallest admissible r (widest fleet).
	BaselineMaxNode = alloc.MaxNode
	// BaselineMinNode uses r = m (the two cheapest devices only).
	BaselineMinNode = alloc.MinNode
)

// NewScheme builds the structured coding design for m data rows and r
// random rows (use the R of a Plan from Allocate).
func NewScheme(m, r int) (*Scheme, error) { return coding.New(m, r) }

// Encode runs the cloud-side pre-processing: draw r random rows and produce
// every device's coded block B_j·T.
func Encode[E comparable](f Field[E], s *Scheme, a *Matrix[E], rng *rand.Rand) (*Encoding[E], error) {
	return coding.Encode(f, s, a, rng)
}

// Decode recovers A·x from the concatenated device results with m
// subtractions.
func Decode[E comparable](f Field[E], s *Scheme, y []E) ([]E, error) {
	return coding.Decode(f, s, y)
}

// VerifyScheme re-establishes Theorem 3 for a concrete scheme over f: the
// coefficient matrix is full rank (the user can decode) and every device's
// rows intersect the data subspace trivially (no device learns anything).
func VerifyScheme[E comparable](f Field[E], s *Scheme) error {
	return coding.Verify(f, s)
}

// NewCollusionScheme builds the t-collusion-resistant extension for the
// given per-device row counts (rows must sum to m+r and any t devices may
// hold at most r rows combined). The result is a Code to encode and decode
// with directly; to deploy the tier, pass WithCollusion to Deploy, which
// solves the row layout itself.
func NewCollusionScheme[E comparable](f Field[E], m, r, t int, rows []int) (*CollusionScheme[E], error) {
	return coding.NewCollusion(f, m, r, t, rows)
}

// PolyMaskScheme is the polynomial-masking (Shamir-style) comparison design
// from the paper's related work ([8]–[10]): every device stores the whole
// masked matrix, any t may collude, any t+1 responses decode. Included as
// the related-work baseline the MCSCEC cost optimization is measured
// against (see experiments' comparison table).
type PolyMaskScheme[E comparable] = coding.PolyMaskScheme[E]

// NewPolyMaskScheme builds a polynomial-masking scheme for m data rows on n
// devices with collusion/straggler threshold t.
func NewPolyMaskScheme[E comparable](f Field[E], m, t, n int) (*PolyMaskScheme[E], error) {
	return coding.NewPolyMask(f, m, t, n)
}

// AuditDevice measures how many independent linear combinations of A's rows
// a device holding the scheme's j-th coefficient block could compute; 0
// means information-theoretically blind.
func AuditDevice[E comparable](f Field[E], s *Scheme, j int) int {
	return attack.Leakage(f, coding.DeviceMatrix(f, s, j), s.M())
}

// AuditCode is AuditDevice for any Code (structured or collusion): the leak
// dimension of the j-th device's coefficient block.
func AuditCode[E comparable](f Field[E], c Code[E], j int) int {
	return attack.Leakage(f, c.DeviceCoefficients(j), c.M())
}
