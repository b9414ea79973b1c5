package scec

import (
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(101, 103)) }

func TestDeployEndToEndPrime(t *testing.T) {
	f := PrimeField()
	rng := testRNG()
	a := RandomMatrix(f, rng, 50, 16)
	costs := []float64{1.5, 0.7, 2.2, 1.1, 3.4, 0.9}

	dep, err := Deploy(f, a, costs, rng)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Devices() != dep.Plan.I {
		t.Fatalf("deployment spans %d devices, plan says %d", dep.Devices(), dep.Plan.I)
	}
	x := RandomVector(f, rng, 16)
	got, err := dep.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	want := MulVec(f, a, x)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %d != %d", i, got[i], want[i])
		}
	}
	for j, leak := range dep.Audit() {
		if leak != 0 {
			t.Fatalf("device %d leaks %d dimensions", j, leak)
		}
	}
	if dep.Cost() <= 0 {
		t.Fatal("plan cost must be positive")
	}
}

// TestDeployNilRandDrawsFreshMasks pins the nil-rng contract: Deploy keys its
// own generator from crypto/rand, so two deployments of the same matrix decode
// alike and share no masking rows.
func TestDeployNilRandDrawsFreshMasks(t *testing.T) {
	f := PrimeField()
	rng := testRNG()
	a := RandomMatrix(f, rng, 20, 8)
	costs := []float64{1.5, 0.7, 2.2, 1.1}
	x := RandomVector(f, rng, 8)
	want := MulVec(f, a, x)
	var masks [2][]uint64
	for i := range masks {
		dep, err := Deploy(f, a, costs, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dep.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("deployment %d, entry %d: %d != %d", i, j, got[j], want[j])
			}
		}
		masks[i] = dep.Encoding.Blocks[0].Row(0) // block 0 is R itself
	}
	for j := range masks[0] {
		if masks[0][j] != masks[1][j] {
			return
		}
	}
	t.Fatalf("two nil-rng deployments drew the same masking row %v", masks[0])
}

// TestDeployRealField: a float64 matrix has no uniform masks, so Deploy
// refuses it with ErrOptionNotApplicable naming DeployQuantized — before
// planning, since one device is no fleet at all and still gets that error.
func TestDeployRealField(t *testing.T) {
	f := RealField(1e-6)
	rng := testRNG()
	a := RandomMatrix(f, rng, 20, 8)
	for _, costs := range [][]float64{{1, 1, 1, 1}, {1}} {
		dep, err := Deploy(f, a, costs, rng)
		if dep != nil || !errors.Is(err, ErrOptionNotApplicable) || !strings.Contains(err.Error(), "DeployQuantized") {
			t.Fatalf("%d devices: Deploy = %v, %v; want ErrOptionNotApplicable naming DeployQuantized", len(costs), dep, err)
		}
	}
}

func TestDeployErrors(t *testing.T) {
	f := PrimeField()
	rng := testRNG()
	a := RandomMatrix(f, rng, 10, 4)
	if _, err := Deploy(f, a, []float64{1}, rng); err == nil {
		t.Error("single-device fleet should be rejected")
	}
	dep, err := Deploy(f, a, []float64{1, 2, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.MulVec(make([]uint64, 3)); err == nil {
		t.Error("wrong-length input should be rejected")
	}
}

// TestAllocateAgreesWithExhaustive checks the facade's plan against the
// Theorem 1 lower bound; internal/alloc holds TA1 ≡ TA2 (the exhaustive TA2).
func TestAllocateAgreesWithExhaustive(t *testing.T) {
	costs := []float64{2.5, 1.1, 3.7, 0.4, 1.9}
	p1, err := Allocate(123, costs)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := LowerBound(123, costs)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cost < lb {
		t.Fatalf("optimal cost %g below lower bound %g", p1.Cost, lb)
	}
}

func TestBaselinesExposed(t *testing.T) {
	in := Instance{M: 30, Costs: []float64{1, 2, 3, 4}}
	opt, err := Allocate(in.M, in.Costs)
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []func(Instance) (Plan, error){BaselineWithoutSecurity, BaselineMaxNode, BaselineMinNode} {
		p, err := base(in)
		if err != nil {
			t.Fatal(err)
		}
		if p.Algorithm == "" {
			t.Fatal("baseline plan must be labelled")
		}
		if p.Algorithm != "TAw/oS" && p.Cost < opt.Cost-1e-9 {
			t.Fatalf("secure baseline %s beat the optimum", p.Algorithm)
		}
	}
}

func TestSchemeRoundTripViaFacade(t *testing.T) {
	f := GF256Field()
	rng := testRNG()
	s, err := NewCode(f, 12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	a := RandomMatrix(f, rng, 12, 6)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := RandomVector(f, rng, 6)
	y := enc.ComputeAll(f, x)
	got, err := s.Decode(y)
	if err != nil {
		t.Fatal(err)
	}
	want := MulVec(f, a, x)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("entry %d mismatch", i)
		}
	}
}

func TestCollusionSchemeViaFacade(t *testing.T) {
	f := PrimeField()
	s, err := NewCollusionScheme(f, 8, 4, 2, []int{2, 2, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestUnitCostHelpers(t *testing.T) {
	c := CostComponents{Storage: 1, Add: 1, Mul: 2, Comm: 3}
	// l = 4: 5*1 + 4*2 + 3*1 + 3 = 19
	if got := UnitCost(4, c); got != 19 {
		t.Fatalf("UnitCost = %g, want 19", got)
	}
	units, err := UnitCosts(4, []CostComponents{c, c})
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 2 || units[0] != 19 {
		t.Fatalf("UnitCosts = %v", units)
	}
}

func TestDeployMulMat(t *testing.T) {
	f := PrimeField()
	rng := testRNG()
	a := RandomMatrix(f, rng, 30, 12)
	dep, err := Deploy(f, a, []float64{1.2, 0.5, 2.0, 1.4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := RandomMatrix(f, rng, 12, 5)
	got, err := dep.MulMat(x)
	if err != nil {
		t.Fatal(err)
	}
	if !MatrixEqual(f, got, Mul(f, a, x)) {
		t.Fatal("MulMat != A·X")
	}
	if _, err := dep.MulMat(RandomMatrix(f, rng, 7, 5)); err == nil {
		t.Fatal("wrong-shaped input matrix should be rejected")
	}
}

func TestMatrixConstructors(t *testing.T) {
	m := NewMatrix[uint64](2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("NewMatrix wrong shape")
	}
	fr := MatrixFromRows([][]uint64{{1, 2}, {3, 4}})
	if fr.At(1, 0) != 3 {
		t.Fatal("MatrixFromRows wrong content")
	}
}
