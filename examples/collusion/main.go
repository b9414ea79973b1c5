// Collusion resistance — the paper's future-work extension (§VI): the
// structured Eq. (8) design is information-theoretically secure against any
// single honest-but-curious device, but two colluding devices break it
// instantly (one holds A_p + R_q, another holds R_q). This example
//
//  1. mounts that concrete two-device attack against the structured scheme
//     and recovers a row of A, then
//  2. deploys the Cauchy-based collusion-resistant scheme, verifies that
//     every coalition of up to t devices is blind, and runs a full
//     encode → compute → decode round trip.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/attack"
	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/matrix"
)

func main() {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(9, 9))
	const (
		m = 8
		l = 5
		t = 2 // colluders to defend against
	)

	// --- Part 1: break the single-attacker design with two devices. ---
	s, err := scec.NewCode(f, m, 4)
	if err != nil {
		log.Fatal(err)
	}
	a := scec.RandomMatrix(f, rng, m, l)
	enc, err := s.Encode(a, rng)
	if err != nil {
		log.Fatal(err)
	}

	// Each device alone is blind.
	for j := 0; j < s.Devices(); j++ {
		if leak := scec.AuditCode(f, s, j); leak != 0 {
			log.Fatalf("device %d should be blind, leaks %d", j, leak)
		}
	}
	fmt.Println("structured scheme: every single device is information-theoretically blind")

	// Devices 0 and 1 pool their coefficient rows and coded rows.
	pooledCoeffs := matrix.VStack(
		s.DeviceCoefficients(0),
		s.DeviceCoefficients(1),
	)
	pooledCoded := matrix.VStack(enc.Blocks[0], enc.Blocks[1])
	alpha, combo, ok := attack.Exploit(f, pooledCoeffs, m)
	if !ok {
		log.Fatal("expected the coalition to break the structured scheme")
	}
	if err := attack.VerifyExploit(f, pooledCoded, a, alpha, combo); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coalition {device 0, device 1} recovered a combination of A's rows (weights %v)\n", combo)

	// --- Part 2: the Cauchy-based scheme survives the same coalition. ---
	rows, r, err := coding.UniformCollusionRows(m, t, 3)
	if err != nil {
		log.Fatal(err)
	}
	cs, err := scec.NewCollusionScheme(f, m, r, t, rows)
	if err != nil {
		log.Fatal(err)
	}
	if err := cs.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collusion scheme: r=%d random rows over %d devices; every coalition of ≤%d devices verified blind\n",
		r, cs.Devices(), t)

	cenc, err := cs.Encode(a, rng)
	if err != nil {
		log.Fatal(err)
	}
	x := scec.RandomVector(f, rng, l)
	y := cenc.ComputeAll(f, x)
	got, err := cs.Decode(y)
	if err != nil {
		log.Fatal(err)
	}
	want := scec.MulVec(f, a, x)
	for i := range got {
		if got[i] != want[i] {
			log.Fatalf("decode mismatch at entry %d", i)
		}
	}
	fmt.Printf("collusion scheme decoded A·x correctly (%d entries)\n", len(got))

	// The price of collusion resistance: more random rows than the optimal
	// single-attacker design would need.
	base, err := scec.Allocate(m, []float64{1, 1, 1, 1, 1, 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("redundancy price: single-attacker optimum uses r=%d; %d-collusion design uses r=%d\n",
		base.R, t, r)
}
