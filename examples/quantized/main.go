// Quantized deployment — exact information-theoretic security for float
// workloads.
//
// The paper's security definition needs uniformly random field elements, so
// the strongest guarantees live in F_p — but model weights are float64. The
// quantized path bridges the two: weights and inputs are embedded as
// fixed-point residues, the entire coded pipeline runs exactly in F_p (the
// coding adds zero numerical error), and only the final result is scaled
// back. This example deploys the same matrix twice — float path vs
// quantized path — and compares accuracy and guarantees.
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
	fR := scec.RealField(0)

	const (
		m, l     = 400, 64
		fracBits = 20
		queries  = 50
	)
	a := scec.RandomMatrix(fR, rng, m, l)
	costs := []float64{1.2, 0.9, 2.0, 1.5, 3.1, 0.7}

	// Path 1: float64 coding (masks are Gaussian — fine for soft threat
	// models, but "uniformly random real" has no information-theoretic
	// meaning).
	floatDep, err := scec.Deploy(fR, a, costs, rng)
	if err != nil {
		log.Fatal(err)
	}

	// Path 2: fixed-point coding in F_p — exact arithmetic, uniform masks,
	// Definition 2 holds verbatim.
	quantDep, err := scec.DeployQuantized(a, fracBits, 8, costs, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("float path:     %d devices, r=%d, cost %.2f\n", floatDep.Devices(), floatDep.Plan.R, floatDep.Cost())
	fmt.Printf("quantized path: %d devices, r=%d, cost %.2f, leakage %v\n",
		quantDep.Devices(), quantDep.Plan.R, quantDep.Cost(), quantDep.Audit())

	var worstFloat, worstQuant float64
	for q := 0; q < queries; q++ {
		x := scec.RandomVector(fR, rng, l)
		want := scec.MulVec(fR, a, x)

		yf, err := floatDep.MulVec(x)
		if err != nil {
			log.Fatal(err)
		}
		yq, err := quantDep.MulVec(x)
		if err != nil {
			log.Fatal(err)
		}
		for i := range want {
			if d := math.Abs(yf[i] - want[i]); d > worstFloat {
				worstFloat = d
			}
			if d := math.Abs(yq[i] - want[i]); d > worstQuant {
				worstQuant = d
			}
		}
	}
	fmt.Printf("worst |error| over %d queries:\n", queries)
	fmt.Printf("  float coding:     %.3g (float64 rounding through mask add/subtract)\n", worstFloat)
	fmt.Printf("  quantized coding: %.3g (pure fixed-point quantization at %d fractional bits; bound %.3g)\n",
		worstQuant, fracBits, quantDep.ErrorBound(8))
	fmt.Println("the quantized pipeline's coding layer is exact: its only error is the fixed-point embedding")
}
