package coding

import (
	"slices"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

func TestBatchRoundTrip(t *testing.T) {
	run := func(t *testing.T, m, l, r, n int) {
		t.Helper()
		f := field.Prime{}
		rng := testRNG()
		s, err := NewStructured(f, m, r)
		if err != nil {
			t.Fatal(err)
		}
		a := matrix.Random[uint64](f, rng, m, l)
		x := matrix.Random[uint64](f, rng, l, n)
		enc, err := s.Encode(a, rng)
		if err != nil {
			t.Fatal(err)
		}
		y := enc.ComputeAllBatch(f, x)
		got, err := decodeBatch[uint64](s, y)
		if err != nil {
			t.Fatal(err)
		}
		want := matrix.Mul[uint64](f, a, x)
		if !matrix.Equal[uint64](f, got, want) {
			t.Fatalf("m=%d l=%d r=%d n=%d: DecodeInto != A·X", m, l, r, n)
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
	s, err := NewStructured(f, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 7, 5)
	x := matrix.Random[uint64](f, rng, 5, 3)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := decodeBatch[uint64](s, enc.ComputeAllBatch(f, x))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < x.Cols(); c++ {
		col := make([]uint64, x.Rows())
		for i := range col {
			col[i] = x.At(i, c)
		}
		y := enc.ComputeAll(f, col)
		single, err := s.Decode(y)
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
	s, err := NewStructured(f, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DecodeInto(matrix.New[uint64](4, 3), matrix.New[uint64](5, 3)); err == nil {
		t.Fatal("wrong intermediate row count should be rejected")
	}
	if err := s.DecodeInto(matrix.New[uint64](4, 2), matrix.New[uint64](6, 3)); err == nil {
		t.Fatal("an output narrower than the intermediate block should be rejected")
	}
	if err := s.DecodeInto(matrix.New[uint64](3, 1), matrix.New[uint64](6, 1)); err == nil {
		t.Fatal("an output shorter than m should be rejected")
	}
}

// decodeBatch is DecodeInto on a fresh m×n output.
func decodeBatch[E comparable](c Code[E], y *matrix.Dense[E]) (*matrix.Dense[E], error) {
	ax := matrix.New[E](c.M(), y.Cols())
	if err := c.DecodeInto(ax, y); err != nil {
		return nil, err
	}
	return ax, nil
}

// ComputeAllBatch is ComputeAllInto on a fresh (m+r)×n result. It is a
// test helper: the golden and differential tests call it by the name of the
// batch-only method ComputeAllInto replaced, so they read unchanged.
func (e *Encoding[E]) ComputeAllBatch(f field.Field[E], x *matrix.Dense[E]) *matrix.Dense[E] {
	offs := e.offsets()
	y := matrix.New[E](offs[len(offs)-1], x.Cols())
	e.ComputeAllInto(f, x, y)
	return y
}

// TestComputeAllIntoDeviceRows: each device's rows of a width-n
// ComputeAllInto are its own block times X.
func TestComputeAllIntoDeviceRows(t *testing.T) {
	f := field.GF256{}
	rng := testRNG()
	s, err := NewStructured(f, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[byte](f, rng, 6, 4)
	x := matrix.Random[byte](f, rng, 4, 5)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	y := enc.ComputeAllBatch(f, x)
	for j := 0; j < s.Devices(); j++ {
		from, to := s.RowRange(j)
		want := matrix.Mul(f, enc.Blocks[j], x)
		if want.Rows() != s.RowsOn(j) || !slices.Equal(y.RowsView(from, to), want.RowsView(0, want.Rows())) {
			t.Fatalf("device %d: rows [%d,%d) of ComputeAllInto differ from its block times X", j, from, to)
		}
	}
}
