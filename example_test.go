package scec_test

import (
	"fmt"
	"math/rand/v2"

	"github.com/scec/scec"
)

// ExampleDeploy provisions a secure multiplication service and runs one
// query through it.
func ExampleDeploy() {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(1, 2))

	a := scec.MatrixFromRows([][]uint64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
		{10, 11, 12},
	})
	costs := []float64{1.0, 2.0, 1.5, 3.0}

	dep, err := scec.Deploy(f, a, costs, rng)
	if err != nil {
		fmt.Println("deploy:", err)
		return
	}
	y, err := dep.MulVec([]uint64{1, 0, 1})
	if err != nil {
		fmt.Println("mulvec:", err)
		return
	}
	fmt.Println(y)
	fmt.Println("leakage:", dep.Audit())
	// Output:
	// [4 10 16 22]
	// leakage: [0 0 0]
}

// ExampleAllocate solves a task allocation and compares it with the lower
// bound.
func ExampleAllocate() {
	costs := []float64{1, 1, 1, 1, 1}
	plan, err := scec.Allocate(4, costs)
	if err != nil {
		fmt.Println("allocate:", err)
		return
	}
	lb, err := scec.LowerBound(4, costs)
	if err != nil {
		fmt.Println("bound:", err)
		return
	}
	fmt.Printf("r=%d devices=%d cost=%.0f lb=%.0f\n", plan.R, plan.I, plan.Cost, lb)
	// Output:
	// r=1 devices=5 cost=5 lb=5
}

// ExampleNewCode shows the coding layer without the allocation layer.
func ExampleNewCode() {
	f := scec.GF256Field()
	rng := rand.New(rand.NewPCG(3, 4))

	s, err := scec.NewCode(f, 4, 2)
	if err != nil {
		fmt.Println("code:", err)
		return
	}
	if err := s.Verify(); err != nil {
		fmt.Println("verify:", err)
		return
	}
	a := scec.RandomMatrix(f, rng, 4, 3)
	enc, err := s.Encode(a, rng)
	if err != nil {
		fmt.Println("encode:", err)
		return
	}
	x := []byte{1, 2, 3}
	y, err := s.Decode(enc.ComputeAll(f, x))
	if err != nil {
		fmt.Println("decode:", err)
		return
	}
	want := scec.MulVec(f, a, x)
	fmt.Println("devices:", s.Devices(), "match:", equalBytes(y, want))
	// Output:
	// devices: 3 match: true
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
