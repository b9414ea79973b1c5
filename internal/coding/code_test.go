package coding

import (
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// Both engine-selectable designs must satisfy the scheme-agnostic contract.
var (
	_ Code[uint64]  = (*StructuredCode[uint64])(nil)
	_ Code[byte]    = (*CollusionScheme[byte])(nil)
	_ Code[float64] = (*StructuredCode[float64])(nil)
)

// TestStructuredCodeBitIdenticalToPackageFunctions pins the tentpole's
// no-regression guarantee: the Code wrapper must produce byte-identical
// encodings and decodes to the pre-interface package-level Eq. (8) paths.
func TestStructuredCodeBitIdenticalToPackageFunctions(t *testing.T) {
	f := field.Prime{}
	const m, r, l = 12, 5, 7
	s, err := New(m, r)
	if err != nil {
		t.Fatal(err)
	}
	code, err := NewStructured[uint64](f, m, r)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rand.New(rand.NewPCG(3, 9)), m, l)

	// Same rng stream on both sides: the blocks must match exactly.
	encOld, err := Encode[uint64](f, s, a, rand.New(rand.NewPCG(5, 11)))
	if err != nil {
		t.Fatal(err)
	}
	encNew, err := code.Encode(a, rand.New(rand.NewPCG(5, 11)))
	if err != nil {
		t.Fatal(err)
	}
	if len(encOld.Blocks) != len(encNew.Blocks) {
		t.Fatalf("block counts differ: %d vs %d", len(encOld.Blocks), len(encNew.Blocks))
	}
	for j := range encOld.Blocks {
		if !matrix.Equal[uint64](f, encOld.Blocks[j], encNew.Blocks[j]) {
			t.Fatalf("block %d differs between package Encode and StructuredCode.Encode", j)
		}
	}
	if encNew.Code == nil || encNew.Scheme == nil {
		t.Fatal("structured encoding must carry both the Code handle and the Scheme fast path")
	}

	x := matrix.RandomVec[uint64](f, rand.New(rand.NewPCG(7, 13)), l)
	y := encOld.ComputeAll(f, x)
	gotOld, err := Decode[uint64](f, s, y)
	if err != nil {
		t.Fatal(err)
	}
	gotNew, err := code.Decode(y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gotOld {
		if gotOld[i] != gotNew[i] {
			t.Fatalf("decode mismatch at %d: %d vs %d", i, gotOld[i], gotNew[i])
		}
	}

	xb := matrix.Random[uint64](f, rand.New(rand.NewPCG(9, 17)), l, 3)
	yb := encOld.ComputeAllBatch(f, xb)
	gotBatchOld := matrix.New[uint64](m, yb.Cols())
	if err := DecodeBatchInto[uint64](f, s, gotBatchOld, yb); err != nil {
		t.Fatal(err)
	}
	gotBatchNew, err := decodeBatch[uint64](code, yb)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal[uint64](f, gotBatchOld, gotBatchNew) {
		t.Fatal("DecodeBatchInto mismatch between package function and StructuredCode")
	}
}

// TestCodeMetadata checks the shape accessors of both designs against the
// construction parameters.
func TestCodeMetadata(t *testing.T) {
	f := field.Prime{}
	sc, err := NewStructured[uint64](f, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name() != "eq8" || sc.M() != 10 || sc.R() != 4 || sc.T() != 1 {
		t.Fatalf("structured metadata wrong: name=%q m=%d r=%d t=%d", sc.Name(), sc.M(), sc.R(), sc.T())
	}
	if sc.K() != sc.Devices() {
		t.Fatalf("structured K = %d, want Devices = %d", sc.K(), sc.Devices())
	}
	if err := sc.Verify(); err != nil {
		t.Fatal(err)
	}

	rows, r, err := UniformCollusionRows(10, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewCollusion[uint64](f, 10, r, 2, rows)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Name() != "collusion" || cc.M() != 10 || cc.R() != r || cc.T() != 2 {
		t.Fatalf("collusion metadata wrong: name=%q m=%d r=%d t=%d", cc.Name(), cc.M(), cc.R(), cc.T())
	}
	if cc.K() != cc.Devices() || cc.Devices() != len(rows) {
		t.Fatalf("collusion K=%d devices=%d rows=%d", cc.K(), cc.Devices(), len(rows))
	}
	total := 0
	for j := 0; j < cc.Devices(); j++ {
		from, to := cc.RowRange(j)
		if to-from != cc.RowsOn(j) {
			t.Fatalf("device %d: RowRange width %d != RowsOn %d", j, to-from, cc.RowsOn(j))
		}
		if b := cc.DeviceCoefficients(j); b.Rows() != cc.RowsOn(j) || b.Cols() != cc.M()+cc.R() {
			t.Fatalf("device %d coefficient block is %dx%d", j, b.Rows(), b.Cols())
		}
		total += cc.RowsOn(j)
	}
	if total != cc.M()+cc.R() {
		t.Fatalf("rows sum to %d, want m+r = %d", total, cc.M()+cc.R())
	}
}

// TestBindSchemeSharesScheme checks that BindScheme wraps the given scheme
// without copying, so CLI reports and the engine see the same design.
func TestBindSchemeSharesScheme(t *testing.T) {
	s, err := New(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := BindScheme[uint64](field.Prime{}, s)
	if c.Scheme() != s {
		t.Fatal("BindScheme must expose the identical *Scheme")
	}
	if c.M() != 8 || c.R() != 3 {
		t.Fatalf("bound code reports m=%d r=%d", c.M(), c.R())
	}
}

// TestBalancedCollusionRows checks the reshape layout helper: an even split
// that satisfies the coalition capacity condition, and a hard error when no
// t-secure layout exists at the requested shape.
func TestBalancedCollusionRows(t *testing.T) {
	rows, err := BalancedCollusionRows(10, 6, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, v := range rows {
		sum += v
		if v < 2 || v > 3 {
			t.Fatalf("unbalanced layout %v", rows)
		}
	}
	if sum != 16 {
		t.Fatalf("layout %v sums to %d, want 16", rows, sum)
	}
	// Two devices out of two hold all 12 rows > r = 2: infeasible.
	if _, err := BalancedCollusionRows(10, 2, 2, 2); err == nil {
		t.Fatal("expected capacity violation for t=2 over 2 devices")
	}
	if _, err := BalancedCollusionRows(0, 1, 1, 1); err == nil {
		t.Fatal("expected parameter validation error")
	}
	if _, err := BalancedCollusionRows(2, 1, 1, 9); err == nil {
		t.Fatal("expected error: more devices than coded rows")
	}
}

// TestReshapedPreservesKind checks the adaptive control plane's reshape
// primitive: a structured prototype reshapes to a structured code, a
// collusion prototype keeps its threshold t, and unknown kinds are rejected.
func TestReshapedPreservesKind(t *testing.T) {
	f := field.Prime{}
	sc, err := NewStructured[uint64](f, 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Reshaped[uint64](f, sc, 12, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := re.(*StructuredCode[uint64]); !ok {
		t.Fatalf("structured reshape produced %T", re)
	}
	if re.R() != 6 || re.Devices() != 3 {
		t.Fatalf("reshaped to r=%d devices=%d", re.R(), re.Devices())
	}
	// Device count must match the (m, r)-implied i = ceil((m+r)/r).
	if _, err := Reshaped[uint64](f, sc, 12, 6, 5); err == nil {
		t.Fatal("expected device-count mismatch error")
	}

	rows, r, err := UniformCollusionRows(12, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewCollusion[uint64](f, 12, r, 2, rows)
	if err != nil {
		t.Fatal(err)
	}
	re2, err := Reshaped[uint64](f, cc, 12, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := re2.(*CollusionScheme[uint64])
	if !ok {
		t.Fatalf("collusion reshape produced %T", re2)
	}
	if got.T() != 2 {
		t.Fatalf("reshape dropped the threshold: t = %d", got.T())
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
	// An infeasible t-secure layout must fail, not silently weaken security.
	if _, err := Reshaped[uint64](f, cc, 12, 2, 7); err == nil {
		t.Fatal("expected infeasible reshape to error")
	}
}
