package scec_test

import (
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/faultproxy"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/transport"
)

// collusionFleet provisions faultproxy.Proxy-fronted loopback devices for one
// field's fleet-backed collusion deployment, so the test can kill replicas
// mid-session.
type collusionFleet[E comparable] struct {
	t        *testing.T
	f        scec.Field[E]
	replicas int

	mu      sync.Mutex
	proxies [][]*faultproxy.Proxy
}

func (h *collusionFleet[E]) config() scec.FleetExecutorConfig {
	return scec.FleetExecutorConfig{
		Session: scec.FleetConfig{
			QueryTimeout:  10 * time.Second,
			RPCTimeout:    2 * time.Second,
			HedgeAfter:    -1, // deterministic failover, no speculation
			ProbeInterval: -1, // no background probing
			Metrics:       obs.New(),
		},
		Provision: func(blocks int) ([][]string, []string, error) {
			group := make([][]*faultproxy.Proxy, blocks)
			addrs := make([][]string, blocks)
			for j := 0; j < blocks; j++ {
				for k := 0; k < h.replicas; k++ {
					srv, err := transport.NewDeviceServer(h.f, "127.0.0.1:0")
					if err != nil {
						return nil, nil, err
					}
					h.t.Cleanup(func() { _ = srv.Close() })
					p, err := faultproxy.New(srv.Addr())
					if err != nil {
						return nil, nil, err
					}
					h.t.Cleanup(func() { _ = p.Close() })
					group[j] = append(group[j], p)
					addrs[j] = append(addrs[j], p.Addr())
				}
			}
			h.mu.Lock()
			h.proxies = group
			h.mu.Unlock()
			return addrs, nil, nil
		},
	}
}

// failFirstReplicas drops the first replica of every coded block.
func (h *collusionFleet[E]) failFirstReplicas() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, replicas := range h.proxies {
		replicas[0].SetMode(faultproxy.Drop)
	}
}

// collusionBackendsAgree is the differential harness behind the tentpole's
// pin: the same t = 2 deployment inputs must answer identically — and match
// the plaintext product — over the local kernels, the virtual-clock
// simulator, and the replicated TCP fleet, including after the first replica
// of every block is killed mid-session. WithCollusion(2) plans the layout
// with the TACollusion sweep.
func collusionBackendsAgree[E comparable](t *testing.T, f scec.Field[E]) {
	const m, l, tc = 18, 6, 2
	costs := []float64{1.4, 0.8, 2.1, 1.0, 3.2, 0.9, 1.7, 2.6, 1.2, 1.9, 2.3, 0.95, 3.0, 1.6, 2.8, 1.05, 2.2, 1.8, 0.85, 2.9, 1.35}
	newRng := func() *rand.Rand { return rand.New(rand.NewPCG(41, 97)) }
	a := scec.RandomMatrix(f, rand.New(rand.NewPCG(3, 5)), m, l)
	x := scec.RandomVector(f, rand.New(rand.NewPCG(7, 9)), l)
	want := scec.MulVec(f, a, x)

	harness := &collusionFleet[E]{t: t, f: f, replicas: 2}
	backends := []struct {
		name    string
		backend scec.ExecutorBackend[E]
	}{
		{"local", scec.LocalExecutor[E]()},
		{"sim", scec.SimExecutor[E](scec.SimExecutorConfig{Metrics: obs.New()})},
		{"fleet", scec.FleetExecutor[E](harness.config())},
	}
	var reference []E
	for _, tb := range backends {
		t.Run(tb.name, func(t *testing.T) {
			// Same seed stream per backend: identical plan, Cauchy coding,
			// and random rows, so answers must be bit-identical.
			dep, err := scec.Deploy(f, a, costs, newRng(), scec.WithCollusion[E](tc), scec.WithExecutor(tb.backend))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = dep.Close() })
			if dep.Code.T() != tc || dep.Code.Name() != "collusion" {
				t.Fatalf("deployed code %q with t = %d, want collusion t = %d", dep.Code.Name(), dep.Code.T(), tc)
			}
			if dep.Plan.Algorithm != "TAt" {
				t.Fatalf("plan algorithm %q, want TAt", dep.Plan.Algorithm)
			}
			for j, leak := range dep.Audit() {
				if leak != 0 {
					t.Fatalf("device %d leaks %d dimensions", j, leak)
				}
			}
			got, err := dep.MulVec(x)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if !f.Equal(got[i], want[i]) {
					t.Fatalf("entry %d: decoded %v, plaintext %v", i, got[i], want[i])
				}
			}
			if reference == nil {
				reference = got
			} else {
				for i := range got {
					if got[i] != reference[i] {
						t.Fatalf("entry %d: backend %s decoded %v, local decoded %v", i, tb.name, got[i], reference[i])
					}
				}
			}
			if tb.name == "fleet" {
				// Kill the first replica of every block; failover must keep
				// the collusion decode exact.
				harness.failFirstReplicas()
				again, err := dep.MulVec(x)
				if err != nil {
					t.Fatal(err)
				}
				for i := range again {
					if again[i] != reference[i] {
						t.Fatalf("entry %d changed after replica loss: %v vs %v", i, again[i], reference[i])
					}
				}
			}
		})
	}
}

// TestCollusionBackendsAgreePrime runs the differential over F_{2^61-1}.
func TestCollusionBackendsAgreePrime(t *testing.T) {
	collusionBackendsAgree(t, scec.PrimeField())
}

// TestCollusionBackendsAgreeGF256 runs the differential over GF(2^8).
func TestCollusionBackendsAgreeGF256(t *testing.T) {
	collusionBackendsAgree(t, scec.GF256Field())
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
