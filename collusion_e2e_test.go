package scec_test

import (
	"math/rand/v2"
	"testing"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/transport"
)

// TestCollusionBackendsAgreePrime runs the backend differential at t = 2
// over F_{2^61-1}: WithCollusion(2) plans the layout with the TACollusion
// sweep and deploys the Cauchy code.
func TestCollusionBackendsAgreePrime(t *testing.T) {
	backendsAgree(t, scec.PrimeField(), 2)
}

// TestCollusionBackendsAgreeGF256 runs the same differential over GF(2^8).
func TestCollusionBackendsAgreeGF256(t *testing.T) {
	backendsAgree(t, scec.GF256Field(), 2)
}

// TestServeCollusionSurvivesReplicaLoss runs the public fault-tolerant Serve
// façade over a t = 2 deployment: two replicas per coded block, one replica
// of every block shut down mid-session, and the decoded A·x must stay exact.
func TestServeCollusionSurvivesReplicaLoss(t *testing.T) {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(19, 23))
	a := scec.RandomMatrix(f, rng, 30, 8)
	costs := []float64{1.1, 2.5, 0.9, 1.8, 1.3, 2.0, 0.7}
	dep, err := scec.Deploy(f, a, costs, rng, scec.WithCollusion[uint64](2))
	if err != nil {
		t.Fatal(err)
	}

	cfg := scec.FleetConfig{
		Replicas:      make([][]string, dep.Devices()),
		ProbeInterval: -1,
	}
	victims := make([]*transport.DeviceServer[uint64], dep.Devices())
	for j := range cfg.Replicas {
		for k := 0; k < 2; k++ {
			srv, err := transport.NewDeviceServer[uint64](f, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			if k == 0 {
				victims[j] = srv
			}
			cfg.Replicas[j] = append(cfg.Replicas[j], srv.Addr())
		}
	}
	s, err := scec.Serve(dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	x := scec.RandomVector(f, rng, 8)
	want := scec.MulVec(f, a, x)
	check := func() {
		t.Helper()
		got, err := s.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatal("fleet session decoded the wrong collusion result")
			}
		}
	}
	check()
	for _, srv := range victims {
		_ = srv.Close()
	}
	check()
}
