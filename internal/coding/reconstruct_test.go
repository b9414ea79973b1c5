package coding

import (
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

func TestReconstructRoundTrip(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	for _, shape := range []struct{ m, l, r int }{
		{4, 3, 2}, {8, 5, 4}, {9, 2, 3}, {16, 7, 5}, {5, 4, 5},
	} {
		scheme, err := NewStructured(f, shape.m, shape.r)
		if err != nil {
			t.Fatal(err)
		}
		a := matrix.New[uint64](shape.m, shape.l)
		for i := 0; i < shape.m; i++ {
			for j := 0; j < shape.l; j++ {
				a.Set(i, j, f.Rand(rng))
			}
		}
		enc, err := scheme.Encode(a, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Reconstruct[uint64](enc)
		if err != nil {
			t.Fatalf("m=%d r=%d: %v", shape.m, shape.r, err)
		}
		if got.Rows() != shape.m || got.Cols() != shape.l {
			t.Fatalf("m=%d r=%d: reconstructed %dx%d", shape.m, shape.r, got.Rows(), got.Cols())
		}
		for i := 0; i < shape.m; i++ {
			for j := 0; j < shape.l; j++ {
				if got.At(i, j) != a.At(i, j) {
					t.Fatalf("m=%d r=%d: A[%d][%d] = %d, want %d", shape.m, shape.r, i, j, got.At(i, j), a.At(i, j))
				}
			}
		}
	}
}

func TestReconstructRejectsIncompleteEncodings(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	scheme, _ := NewStructured(f, 8, 4)
	a := matrix.New[uint64](8, 3)
	for i := 0; i < 8; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, f.Rand(rng))
		}
	}
	enc, err := scheme.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Reconstruct[uint64](nil); err == nil {
		t.Error("nil encoding accepted")
	}
	noCode := *enc
	noCode.Code = nil
	if _, err := Reconstruct[uint64](&noCode); err == nil {
		t.Error("encoding without its code accepted")
	}
	short := *enc
	short.Blocks = short.Blocks[:len(short.Blocks)-1]
	if _, err := Reconstruct[uint64](&short); err == nil {
		t.Error("encoding missing a block accepted")
	}
}
