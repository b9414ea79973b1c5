// Package field provides the algebraic substrate for secure coded edge
// computing: a small generic Field abstraction together with three concrete
// implementations.
//
//   - Prime: the prime field F_p with p = 2^61 - 1. This is the default field
//     for the security-critical code paths, because information-theoretic
//     security requires uniformly random field elements and exact linear
//     algebra.
//   - GF256: the byte field GF(2^8) with the AES reduction polynomial, handy
//     for compact encodings and for exhaustive security checks over a small
//     field.
//   - Real: float64 arithmetic with tolerance-based comparison, the plaintext
//     reference for float workloads. With no uniform distribution it never
//     leaves the host; served float workloads are quantized into Prime.
//
// The abstraction is deliberately value-based (elements are plain comparable
// values, operations live on the field object) so that dense linear algebra
// in package matrix stays allocation-free in its inner loops.
package field

import (
	"errors"
	"math/rand/v2"
)

// ErrDivisionByZero is returned by Inv and Div when the divisor is zero.
var ErrDivisionByZero = errors.New("field: division by zero")

// Field defines arithmetic over a field with element type E.
//
// Implementations must satisfy the field axioms with respect to Equal: Add
// and Mul are commutative and associative, Mul distributes over Add, Zero and
// One are the respective identities, Neg yields additive inverses, and Inv
// yields multiplicative inverses for every non-zero element.
//
// The Real field is the one permitted deviation: it satisfies the axioms only
// approximately, and Equal/IsZero use an absolute tolerance.
type Field[E comparable] interface {
	// Zero returns the additive identity.
	Zero() E
	// One returns the multiplicative identity.
	One() E
	// FromInt64 embeds an integer into the field.
	FromInt64(v int64) E
	// Add returns a + b.
	Add(a, b E) E
	// Sub returns a - b.
	Sub(a, b E) E
	// Neg returns -a.
	Neg(a E) E
	// Mul returns a * b.
	Mul(a, b E) E
	// Inv returns the multiplicative inverse of a, or ErrDivisionByZero if a
	// is zero.
	Inv(a E) (E, error)
	// Div returns a / b, or ErrDivisionByZero if b is zero.
	Div(a, b E) (E, error)
	// Equal reports whether a and b represent the same field element. For
	// exact fields this is ==; for Real it uses a tolerance.
	Equal(a, b E) bool
	// IsZero reports whether a is (approximately, for Real) zero.
	IsZero(a E) bool
	// DotRows sets dst[i] = Σ_k a[i·len(x)+k]·x[k]: a is row-major with
	// len(dst) rows of len(x) elements. It is the product kernel package
	// matrix runs, each row one dot product of the field's own.
	DotRows(dst, a, x []E)
	// AddVecInto sets dst[i] = a[i] + b[i] over the shortest of the three
	// lengths; dst may alias a or b.
	AddVecInto(dst, a, b []E)
	// SubVecInto sets dst[i] = a[i] − b[i] like AddVecInto.
	SubVecInto(dst, a, b []E)
	// Rand returns an element drawn uniformly at random from the field. For
	// Real it draws from a continuous distribution instead; see Real.Rand.
	Rand(rng *rand.Rand) E
	// String renders the element for diagnostics.
	String(a E) string
	// Name identifies the field in logs and error messages.
	Name() string
}

// compile-time interface compliance checks.
var (
	_ Field[uint64]  = Prime{}
	_ Field[byte]    = GF256{}
	_ Field[float64] = Real{}
)
