package cost

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestUnitFormula(t *testing.T) {
	c := Components{Storage: 2, Add: 3, Mul: 5, Comm: 7}
	l := 10
	// (l+1)c^s + l·c^m + (l−1)·c^a + c^d = 11*2 + 10*5 + 9*3 + 7 = 106
	if got := c.Unit(l); got != 106 {
		t.Fatalf("Unit = %g, want 106", got)
	}
}

func TestUnitL1(t *testing.T) {
	c := Components{Storage: 1, Add: 1, Mul: 1, Comm: 1}
	// l=1: 2*1 + 1*1 + 0*1 + 1 = 4
	if got := c.Unit(1); got != 4 {
		t.Fatalf("Unit(1) = %g, want 4", got)
	}
}

func TestUnitPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for l < 1")
		}
	}()
	Components{}.Unit(0)
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		c    Components
		ok   bool
	}{
		{"valid", Components{Storage: 1, Add: 1, Mul: 2, Comm: 1}, true},
		{"add equals mul", Components{Add: 3, Mul: 3}, true},
		{"add exceeds mul", Components{Add: 3, Mul: 2}, false},
		{"negative storage", Components{Storage: -1, Mul: 1}, false},
		{"negative comm", Components{Comm: -0.5, Mul: 1}, false},
		{"all zero", Components{}, true},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestUnitsAndErrors(t *testing.T) {
	comps := []Components{
		{Storage: 1, Add: 1, Mul: 1, Comm: 1},
		{Storage: 0, Add: 0, Mul: 2, Comm: 0},
	}
	units, err := Units(2, comps)
	if err != nil {
		t.Fatal(err)
	}
	// device 0: 3*1 + 2*1 + 1*1 + 1 = 7; device 1: 0 + 4 + 0 + 0 = 4
	if units[0] != 7 || units[1] != 4 {
		t.Fatalf("Units = %v, want [7 4]", units)
	}

	if _, err := Units(2, nil); !errors.Is(err, ErrNoDevices) {
		t.Fatalf("Units(nil) error = %v, want ErrNoDevices", err)
	}
	if _, err := Units(2, []Components{{Add: 2, Mul: 1}}); err == nil {
		t.Fatal("Units should propagate component validation errors")
	}
}

func TestTotalMatchesEquationOne(t *testing.T) {
	comps := []Components{
		{Storage: 1, Add: 1, Mul: 2, Comm: 1},
		{Storage: 2, Add: 0, Mul: 1, Comm: 3},
		{Storage: 1, Add: 1, Mul: 1, Comm: 1},
	}
	l := 4
	rows := []int{3, 2, 0}
	got, err := Total(l, comps, rows)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for j, c := range comps {
		want += c.Unit(l)*float64(rows[j]) + float64(l)*c.Storage
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Total = %g, want %g", got, want)
	}
	// The idle device still pays its fixed l·c^s term.
	if got <= comps[0].Unit(l)*3+comps[1].Unit(l)*2 {
		t.Fatal("Total must include fixed storage terms")
	}
}

func TestTotalErrors(t *testing.T) {
	comps := []Components{{Mul: 1}, {Mul: 1}}
	if _, err := Total(1, comps, []int{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Total(1, comps, []int{1, -2}); err == nil {
		t.Fatal("negative rows should error")
	}
}

func TestVariableTotal(t *testing.T) {
	got, err := VariableTotal([]float64{2, 3}, []int{4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 23 {
		t.Fatalf("VariableTotal = %g, want 23", got)
	}
	if _, err := VariableTotal([]float64{1}, []int{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := VariableTotal([]float64{1}, []int{-1}); err == nil {
		t.Fatal("negative rows should error")
	}
}

// TestTotalDecomposition checks the paper's reduction: Eq. (1) equals the
// variable objective plus the fixed storage sum, for arbitrary component
// prices.
func TestTotalDecomposition(t *testing.T) {
	check := func(s1, a1, m1, d1, s2, a2, m2, d2 uint8, r1, r2 uint8) bool {
		comps := []Components{
			{Storage: float64(s1), Add: float64(a1), Mul: float64(a1) + float64(m1), Comm: float64(d1)},
			{Storage: float64(s2), Add: float64(a2), Mul: float64(a2) + float64(m2), Comm: float64(d2)},
		}
		l := 3
		rows := []int{int(r1 % 16), int(r2 % 16)}
		total, err := Total(l, comps, rows)
		if err != nil {
			return false
		}
		units, err := Units(l, comps)
		if err != nil {
			return false
		}
		variable, err := VariableTotal(units, rows)
		if err != nil {
			return false
		}
		fixed := comps[0].FixedPerDevice(l) + comps[1].FixedPerDevice(l)
		return math.Abs(total-(variable+fixed)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
