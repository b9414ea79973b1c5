// Secure gradient descent — the workload §II-B uses to motivate protecting
// A but not x: "in gradient-descent based algorithms, data matrix A is
// usually the personal data and input vector x in each iteration is only a
// temporary vector for obtaining the final weight vector".
//
// This example fits a linear model to a confidential dataset A (n samples ×
// d features, held only in coded form by the edge fleet) by full-batch
// gradient descent. Each iteration needs two secure products:
//
//	predictions p = A·w          (one deployment codes A)
//	gradient    g = Aᵀ·(p − y)/n (a second deployment codes Aᵀ)
//
// The fleet never sees A or Aᵀ in the clear; the iterate w and residuals —
// the paper's "temporary vectors" — are what travels. Both deployments go
// through DeployQuantized, so the coding runs exactly over F_p with uniform
// masks. Every secure product is checked against the plaintext float
// product of the same input, within the quantizer's stated bound, and the
// example exits non-zero if one exceeds it. The learned weights are compared
// against training on the plaintext data.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand/v2"

	"github.com/scec/scec"
)

const (
	samples  = 200
	features = 8
	iters    = 300
	lr       = 0.05
	fracBits = 20
	// Bounds on every input entry: the iterate w stays near the
	// standard-normal truth, and residuals start at −y, a sum of 8 products.
	maxW     = 8
	maxResid = 32
)

// secureProduct is one deployment with its plaintext matrix, used only to
// check each answer.
type secureProduct struct {
	name  string
	dep   *scec.QuantizedDeployment
	a     *scec.Matrix[float64]
	maxX  float64
	worst float64 // largest |secure − plaintext| so far
}

// mulVec computes a·x on the deployment and checks it against the float
// product within ErrorBound(maxX); an input entry past maxX would only make
// the check stricter.
func (p *secureProduct) mulVec(x []float64) []float64 {
	y, err := p.dep.MulVec(x)
	if err != nil {
		log.Fatal(err)
	}
	bound := p.dep.ErrorBound(p.maxX)
	for i, want := range scec.MulVec(scec.RealField(0), p.a, x) {
		d := math.Abs(y[i] - want)
		if d > bound {
			log.Fatalf("entry %d: secure %g, plaintext %g: error %g exceeds the bound %g", i, y[i], want, d, bound)
		}
		p.worst = max(p.worst, d)
	}
	return y
}

func main() {
	f := scec.RealField(0) // the plaintext reference
	rng := rand.New(rand.NewPCG(77, 5))

	// Confidential training data and synthetic labels from a ground-truth
	// weight vector (plus noise).
	a := scec.RandomMatrix(f, rng, samples, features)
	truth := scec.RandomVector(f, rng, features)
	y := scec.MulVec(f, a, truth)
	for i := range y {
		y[i] += 0.01 * rng.NormFloat64()
	}

	costs := []float64{1.1, 0.9, 1.6, 2.2, 1.3, 2.8, 1.0}

	// Two deployments: one for A (predictions), one for Aᵀ (gradients).
	depA, err := scec.DeployQuantized(a, fracBits, maxW, costs, rng)
	if err != nil {
		log.Fatal(err)
	}
	at := scec.NewMatrix[float64](features, samples)
	for i := 0; i < samples; i++ {
		for j := 0; j < features; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	depAT, err := scec.DeployQuantized(at, fracBits, maxResid, costs, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed A (%d devices, r=%d) and Aᵀ (%d devices, r=%d); leakage %v %v\n",
		depA.Devices(), depA.Plan.R, depAT.Devices(), depAT.Plan.R, depA.Audit(), depAT.Audit())

	// Secure training loop.
	predict := &secureProduct{name: "A·w ", dep: depA, a: a, maxX: maxW}
	gradient := &secureProduct{name: "Aᵀ·r", dep: depAT, a: at, maxX: maxResid}
	w := make([]float64, features)
	var secureLoss float64
	for it := 0; it < iters; it++ {
		pred := predict.mulVec(w)
		resid := make([]float64, samples)
		secureLoss = 0
		for i := range resid {
			resid[i] = pred[i] - y[i]
			secureLoss += resid[i] * resid[i] / samples
		}
		grad := gradient.mulVec(resid)
		for j := range w {
			w[j] -= lr * grad[j] / samples
		}
		if it%100 == 0 {
			fmt.Printf("iter %3d: mse %.6f\n", it, secureLoss)
		}
	}

	// Plaintext reference: identical loop on the raw data.
	wRef := make([]float64, features)
	for it := 0; it < iters; it++ {
		pred := scec.MulVec(f, a, wRef)
		resid := make([]float64, samples)
		for i := range resid {
			resid[i] = pred[i] - y[i]
		}
		grad := scec.MulVec(f, at, resid)
		for j := range wRef {
			wRef[j] -= lr * grad[j] / samples
		}
	}

	maxDiff, werr := 0.0, 0.0
	for j := range w {
		maxDiff = max(maxDiff, math.Abs(w[j]-wRef[j]))
		werr += (w[j] - truth[j]) * (w[j] - truth[j])
	}
	for _, p := range []*secureProduct{predict, gradient} {
		fmt.Printf("%s: worst |error| %.3g, bound l·((maxA+maxX)·δ + δ²) = %.3g at %d fractional bits\n",
			p.name, p.worst, p.dep.ErrorBound(p.maxX), fracBits)
	}
	fmt.Printf("final mse %.6f; secure vs plaintext weights: max |Δw| = %.2g; ‖w−truth‖² = %.6f\n",
		secureLoss, maxDiff, werr)
	fmt.Println("the fleet computed every A·w and Aᵀ·r within the fixed-point bound, without ever seeing A")
}
