// Quantized deployment — exact information-theoretic security for float
// workloads.
//
// The paper's security definition needs uniformly random field elements, so
// the guarantees live in F_p — but model weights are float64. The quantized
// path bridges the two: weights and inputs are embedded as fixed-point
// residues, the entire coded pipeline runs exactly in F_p (the coding adds
// zero numerical error), and only the final result is scaled back. A float64
// matrix is never coded directly: its masks could not be uniform, so Deploy
// refuses it. This example deploys a float matrix through DeployQuantized
// and checks every secure product against the plaintext float product
// (scec.MulVec over RealField) within the quantizer's stated bound; it exits
// non-zero if any product exceeds it.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand/v2"

	"github.com/scec/scec"
)

func main() {
	rng := rand.New(rand.NewPCG(2026, 7))
	fR := scec.RealField(0) // the plaintext reference

	const (
		m, l     = 400, 64
		fracBits = 20
		maxX     = 8
		queries  = 50
	)
	a := scec.RandomMatrix(fR, rng, m, l)
	costs := []float64{1.2, 0.9, 2.0, 1.5, 3.1, 0.7}

	// Fixed-point coding in F_p — exact arithmetic, uniform masks,
	// Definition 2 holds verbatim.
	dep, err := scec.DeployQuantized(a, fracBits, maxX, costs, rng)
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	fmt.Printf("quantized path: %d devices, r=%d, cost %.2f, leakage %v\n",
		dep.Devices(), dep.Plan.R, dep.Cost(), dep.Audit())

	var worst float64
	for q := 0; q < queries; q++ {
		x := scec.RandomVector(fR, rng, l)
		want := scec.MulVec(fR, a, x)
		got, err := dep.MulVec(x)
		if err != nil {
			log.Fatal(err)
		}
		for i := range want {
			worst = math.Max(worst, math.Abs(got[i]-want[i]))
		}
	}
	bound := dep.ErrorBound(maxX)
	fmt.Printf("worst |error| over %d queries: %.3g (fixed-point quantization at %d fractional bits; bound %.3g)\n",
		queries, worst, fracBits, bound)
	if worst > bound {
		log.Fatalf("a secure product left the quantizer's error bound")
	}
	fmt.Println("the quantized pipeline's coding layer is exact: its only error is the fixed-point embedding")
}
