package coding

import (
	"testing"

	"github.com/scec/scec/internal/field"
)

// Both constructors return the one Systematic type, a Code over any field.
var (
	_ Code[uint64]  = (*Systematic[uint64])(nil)
	_ Code[byte]    = (*Systematic[byte])(nil)
	_ Code[float64] = (*Systematic[float64])(nil)
)

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
	re, err := Reshaped[uint64](sc, 12, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if re.Name() != "eq8" {
		t.Fatalf("structured reshape produced a %q code", re.Name())
	}
	if re.R() != 6 || re.Devices() != 3 {
		t.Fatalf("reshaped to r=%d devices=%d", re.R(), re.Devices())
	}
	// Device count must match the (m, r)-implied i = ceil((m+r)/r).
	if _, err := Reshaped[uint64](sc, 12, 6, 5); err == nil {
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
	re2, err := Reshaped[uint64](cc, 12, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := re2
	if got.Name() != "collusion" {
		t.Fatalf("collusion reshape produced a %q code", got.Name())
	}
	if got.T() != 2 {
		t.Fatalf("reshape dropped the threshold: t = %d", got.T())
	}
	if err := got.Verify(); err != nil {
		t.Fatal(err)
	}
	// An infeasible t-secure layout must fail, not silently weaken security.
	if _, err := Reshaped[uint64](cc, 12, 2, 7); err == nil {
		t.Fatal("expected infeasible reshape to error")
	}
}
