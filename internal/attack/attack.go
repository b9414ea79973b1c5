// Package attack implements the passive-adversary harness for secure coded
// edge computing. The paper's threat model (§II-B) is a non-colluding,
// honest-but-curious edge device that keeps its coded rows B_j·T and tries
// to learn a linear combination of the rows of the confidential matrix A.
//
// The harness has three levels of rigor:
//
//   - Leakage: the algebraic test — the dimension of L(B_j) ∩ L(λ̄), which is
//     exactly Definition 2's condition (0 means information-theoretically
//     secure against that device).
//   - Exploit: a constructive attack — when leakage exists it produces the
//     actual coefficient vector the adversary applies to its coded rows and
//     the combination of A's rows it thereby recovers.
//   - ExhaustiveITS: a from-first-principles entropy check over GF(256) for
//     tiny instances: enumerate every (A, R) pair, bucket the device's
//     observation, and confirm the posterior over A given the observation is
//     exactly uniform (H(A | B_j·T) = H(A) by counting).
package attack

import (
	"fmt"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// Leakage returns dim(L(bj) ∩ L(λ̄)): the number of independent linear
// combinations of A's rows the device holding coefficient rows bj can
// compute. bj has m+r columns of which the first m weight data rows. Zero
// means the device satisfies Definition 2.
func Leakage[E comparable](f field.Field[E], bj *matrix.Dense[E], m int) int {
	r := bj.Cols() - m
	if r < 0 {
		panic(fmt.Sprintf("attack: m = %d exceeds %d coefficient columns", m, bj.Cols()))
	}
	return matrix.SpanIntersectionDim(f, bj, coding.DataSubspace(f, m, r))
}

// Exploit mounts the constructive attack against a device holding
// coefficient rows bj (with m data columns first). If the device leaks, it
// returns ok=true together with:
//
//   - rowCoeffs: the coefficients α the adversary applies to its own coded
//     rows, and
//   - dataCombo: the resulting combination of A's rows, i.e. α·B_j restricted
//     to the data columns, which is non-zero.
//
// so that α·(B_j·T) = dataCombo·A — a concrete confidentiality breach. If
// the device is secure, ok is false.
//
// The construction: a combination lies in the data subspace exactly when it
// cancels the random columns, so α ranges over the left null space of the
// random block; any α whose data-column image is non-zero is a break.
func Exploit[E comparable](f field.Field[E], bj *matrix.Dense[E], m int) (rowCoeffs, dataCombo []E, ok bool) {
	r := bj.Cols() - m
	if r < 0 {
		panic(fmt.Sprintf("attack: m = %d exceeds %d coefficient columns", m, bj.Cols()))
	}
	if bj.Rows() == 0 {
		return nil, nil, false
	}
	randomBlock := matrix.RowSliceCols(bj, m, m+r)
	dataBlock := matrix.RowSliceCols(bj, 0, m)
	// Left null vectors of the random block = right null of its transpose.
	basis := matrix.NullSpace(f, matrix.Transpose(randomBlock))
	for b := 0; b < basis.Rows(); b++ {
		alpha := basis.Row(b)
		combo := matrix.MulVec(f, matrix.Transpose(dataBlock), alpha)
		for _, v := range combo {
			if !f.IsZero(v) {
				return alpha, combo, true
			}
		}
	}
	return nil, nil, false
}

// VerifyExploit replays an exploit against concrete data: it checks that
// applying rowCoeffs to the device's coded block equals dataCombo applied to
// A, confirming the attack actually recovers information about A. Tests use
// it to keep Exploit honest.
func VerifyExploit[E comparable](f field.Field[E], codedBlock, a *matrix.Dense[E], rowCoeffs, dataCombo []E) error {
	if len(rowCoeffs) != codedBlock.Rows() {
		return fmt.Errorf("attack: %d coefficients for %d coded rows", len(rowCoeffs), codedBlock.Rows())
	}
	if len(dataCombo) != a.Rows() {
		return fmt.Errorf("attack: %d data weights for %d data rows", len(dataCombo), a.Rows())
	}
	got := matrix.MulVec(f, matrix.Transpose(codedBlock), rowCoeffs)
	want := matrix.MulVec(f, matrix.Transpose(a), dataCombo)
	if !matrix.VecEqual(f, got, want) {
		return fmt.Errorf("attack: exploit replay mismatch")
	}
	return nil
}
