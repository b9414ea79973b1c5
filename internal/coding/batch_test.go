package coding

import (
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

func TestBatchRoundTrip(t *testing.T) {
	run := func(t *testing.T, m, l, r, n int) {
		t.Helper()
		f := field.Prime{}
		rng := testRNG()
		s, err := New(m, r)
		if err != nil {
			t.Fatal(err)
		}
		a := matrix.Random[uint64](f, rng, m, l)
		x := matrix.Random[uint64](f, rng, l, n)
		enc, err := Encode[uint64](f, s, a, rng)
		if err != nil {
			t.Fatal(err)
		}
		y := enc.ComputeAllBatch(f, x)
		got, err := decodeBatch[uint64](BindScheme[uint64](f, s), y)
		if err != nil {
			t.Fatal(err)
		}
		want := matrix.Mul[uint64](f, a, x)
		if !matrix.Equal[uint64](f, got, want) {
			t.Fatalf("m=%d l=%d r=%d n=%d: DecodeBatchInto != A·X", m, l, r, n)
		}
	}
	for _, d := range []struct{ m, l, r, n int }{
		{4, 3, 2, 1},
		{6, 5, 3, 4},
		{9, 4, 9, 7},
		{12, 8, 5, 2},
	} {
		run(t, d.m, d.l, d.r, d.n)
	}
}

// TestBatchAgreesWithColumnwiseDecode: feeding single columns through the
// vector path must match the batch path column by column.
func TestBatchAgreesWithColumnwiseDecode(t *testing.T) {
	f := field.Prime{}
	rng := testRNG()
	s, err := New(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 7, 5)
	x := matrix.Random[uint64](f, rng, 5, 3)
	enc, err := Encode[uint64](f, s, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := decodeBatch[uint64](BindScheme[uint64](f, s), enc.ComputeAllBatch(f, x))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < x.Cols(); c++ {
		col := make([]uint64, x.Rows())
		for i := range col {
			col[i] = x.At(i, c)
		}
		y := enc.ComputeAll(f, col)
		single, err := Decode[uint64](f, s, y)
		if err != nil {
			t.Fatal(err)
		}
		for p := range single {
			if single[p] != batch.At(p, c) {
				t.Fatalf("column %d row %d: vector path %d != batch path %d", c, p, single[p], batch.At(p, c))
			}
		}
	}
}

func TestDecodeBatchValidation(t *testing.T) {
	f := field.Prime{}
	s, err := New(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeBatchInto[uint64](f, s, matrix.New[uint64](4, 3), matrix.New[uint64](5, 3)); err == nil {
		t.Fatal("wrong intermediate row count should be rejected")
	}
	if err := DecodeBatchInto[uint64](f, s, matrix.New[uint64](4, 2), matrix.New[uint64](6, 3)); err == nil {
		t.Fatal("an output narrower than the intermediate block should be rejected")
	}
	if err := DecodeInto[uint64](f, s, make([]uint64, 3), make([]uint64, 6)); err == nil {
		t.Fatal("an output shorter than m should be rejected")
	}
}

// decodeBatch is DecodeBatchInto on a fresh m×n output.
func decodeBatch[E comparable](c Code[E], y *matrix.Dense[E]) (*matrix.Dense[E], error) {
	ax := matrix.New[E](c.M(), y.Cols())
	if err := c.DecodeBatchInto(ax, y); err != nil {
		return nil, err
	}
	return ax, nil
}

func TestComputeDeviceBatchShape(t *testing.T) {
	f := field.GF256{}
	rng := testRNG()
	s, err := New(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[byte](f, rng, 6, 4)
	x := matrix.Random[byte](f, rng, 4, 5)
	enc, err := Encode[byte](f, s, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < s.Devices(); j++ {
		out := enc.ComputeDeviceBatch(f, j, x)
		if out.Rows() != s.RowsOn(j) || out.Cols() != 5 {
			t.Fatalf("device %d batch result is %dx%d, want %dx5", j, out.Rows(), out.Cols(), s.RowsOn(j))
		}
	}
}
