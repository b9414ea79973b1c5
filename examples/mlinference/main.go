// ML inference offload — the paper's motivating workload (§I, Fig. 1): a
// pre-trained model layer y = W·x is evaluated on edge devices without
// revealing the weights W to any of them.
//
// The example builds a small two-layer network over float64 and deploys each
// layer's weight matrix with DeployQuantized: weights and activations are
// embedded as fixed-point residues and coded exactly over F_p, so the masks
// are uniform and Definition 2 holds verbatim. It runs a batch of inference
// requests through the deployments and checks every secure product against
// the plaintext float product of the same input, within the quantizer's
// stated bound; it exits non-zero if any product exceeds it.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand/v2"

	"github.com/scec/scec"
)

// fracBits is the fixed-point precision of weights and activations.
const fracBits = 20

// layer is one dense layer with a secure deployment of its weights.
type layer struct {
	dep   *scec.QuantizedDeployment
	w     *scec.Matrix[float64] // plaintext copy, used only for verification
	bias  []float64
	maxX  float64 // bound on every input entry; a larger one only tightens the check
	worst float64 // largest |secure − plaintext| over every product so far
}

func main() {
	f := scec.RealField(0) // the plaintext reference
	rng := rand.New(rand.NewPCG(42, 7))

	const (
		inputDim  = 32
		hiddenDim = 64
		outputDim = 10
		batch     = 8
	)

	// "Pre-trained" weights (random stand-ins) and a heterogeneous fleet:
	// three cheap single-board devices, three mid-range boxes, two pricey
	// gateways — priced per coded row via the Eq. (1) folding.
	fleet := []scec.CostComponents{
		{Storage: 0.02, Add: 0.01, Mul: 0.02, Comm: 0.5},
		{Storage: 0.02, Add: 0.01, Mul: 0.02, Comm: 0.6},
		{Storage: 0.03, Add: 0.01, Mul: 0.03, Comm: 0.5},
		{Storage: 0.05, Add: 0.02, Mul: 0.05, Comm: 1.0},
		{Storage: 0.05, Add: 0.02, Mul: 0.06, Comm: 1.2},
		{Storage: 0.06, Add: 0.03, Mul: 0.06, Comm: 1.0},
		{Storage: 0.10, Add: 0.05, Mul: 0.12, Comm: 2.5},
		{Storage: 0.12, Add: 0.05, Mul: 0.14, Comm: 3.0},
	}

	// Inputs are standard normals; hidden activations are sums of 32
	// weight·input products plus a bias, comfortably inside ±64.
	l1, err := deployLayer(f, rng, hiddenDim, inputDim, 8, fleet)
	if err != nil {
		log.Fatal(err)
	}
	l2, err := deployLayer(f, rng, outputDim, hiddenDim, 64, fleet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("layer 1: %d devices, %d random rows, cost %.2f, leakage %v\n",
		l1.dep.Devices(), l1.dep.Plan.R, l1.dep.Cost(), l1.dep.Audit())
	fmt.Printf("layer 2: %d devices, %d random rows, cost %.2f, leakage %v\n",
		l2.dep.Devices(), l2.dep.Plan.R, l2.dep.Cost(), l2.dep.Audit())

	for b := 0; b < batch; b++ {
		x := scec.RandomVector(f, rng, inputDim)

		// Secure forward pass: each layer's mat-vec runs on the coded
		// deployment and is checked against W·x in float64.
		h, err := l1.forward(f, x)
		if err != nil {
			log.Fatal(err)
		}
		relu(h)
		y, err := l2.forward(f, h)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("request %d: %d logits verified (argmax %d)\n", b, len(y), argmax(y))
	}
	for i, l := range []*layer{l1, l2} {
		fmt.Printf("layer %d: worst |error| %.3g, bound l·((maxA+maxX)·δ + δ²) = %.3g at %d fractional bits\n",
			i+1, l.worst, l.dep.ErrorBound(l.maxX), fracBits)
	}
	fmt.Println("every secure product stayed within the fixed-point bound of the plaintext one")
}

func deployLayer(f scec.Field[float64], rng *rand.Rand, rows, cols int, maxX float64, fleet []scec.CostComponents) (*layer, error) {
	costs, err := scec.UnitCosts(cols, fleet)
	if err != nil {
		return nil, err
	}
	w := scec.RandomMatrix(f, rng, rows, cols)
	dep, err := scec.DeployQuantized(w, fracBits, maxX, costs, rng)
	if err != nil {
		return nil, err
	}
	bias := scec.RandomVector(f, rng, rows)
	return &layer{dep: dep, w: w, bias: bias, maxX: maxX}, nil
}

// forward computes W·x on the coded deployment, checks it against the
// plaintext product of the same input, then adds the bias locally (the bias
// is small and need not be offloaded).
func (l *layer) forward(f scec.Field[float64], x []float64) ([]float64, error) {
	y, err := l.dep.MulVec(x)
	if err != nil {
		return nil, err
	}
	bound := l.dep.ErrorBound(l.maxX)
	for i, want := range scec.MulVec(f, l.w, x) {
		d := math.Abs(y[i] - want)
		if d > bound {
			return nil, fmt.Errorf("entry %d: secure %g, plaintext %g: error %g exceeds the bound %g", i, y[i], want, d, bound)
		}
		l.worst = max(l.worst, d)
	}
	addBias(y, l.bias)
	return y, nil
}

func addBias(v, bias []float64) {
	for i := range v {
		v[i] += bias[i]
	}
}

func relu(v []float64) {
	for i := range v {
		if v[i] < 0 {
			v[i] = 0
		}
	}
}

func argmax(v []float64) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	return best
}
