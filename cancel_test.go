package scec_test

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec"
)

// queryable is the MulVec surface shared by Deployment and Served.
type queryable interface {
	MulVecContext(ctx context.Context, x []uint64) ([]uint64, error)
	MulMatContext(ctx context.Context, x *scec.Matrix[uint64]) (*scec.Matrix[uint64], error)
}

// checkCancellation exercises one backend: a pre-cancelled context must be
// refused immediately, and cancelling mid-flight under concurrent load must
// release every caller promptly with ctx.Err().
func checkCancellation(t *testing.T, q queryable, l int) {
	t.Helper()
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(3, 3))
	x := scec.RandomVector(f, rng, l)
	xm := scec.RandomMatrix(f, rng, l, 2)

	// Pre-cancelled context: both query shapes refuse without dispatching.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.MulVecContext(pre, x); !errors.Is(err, context.Canceled) {
		t.Fatalf("MulVecContext with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := q.MulMatContext(pre, xm); !errors.Is(err, context.Canceled) {
		t.Fatalf("MulMatContext with cancelled ctx: err = %v, want context.Canceled", err)
	}

	// Mid-flight cancellation under concurrent load: workers hammer the
	// backend until ctx ends; every worker must return promptly after cancel.
	ctx, cancel := context.WithCancel(context.Background())
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				var err error
				if w%2 == 0 {
					_, err = q.MulVecContext(ctx, x)
				} else {
					_, err = q.MulMatContext(ctx, xm)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond) // let the load build
	cancel()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("workers did not return within 5s of cancellation")
	}
	for w, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("worker %d: err = %v, want context.Canceled", w, err)
		}
	}
}

func deployBackend(t *testing.T, opts ...scec.DeployOption[uint64]) (*scec.Deployment[uint64], int) {
	t.Helper()
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(29, 31))
	const m, l = 40, 10
	a := scec.RandomMatrix(f, rng, m, l)
	dep, err := scec.Deploy(f, a, []float64{1.1, 2.5, 0.9, 1.8}, rng, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dep.Close() })
	return dep, l
}

func TestCancellationLocalBackend(t *testing.T) {
	dep, l := deployBackend(t)
	checkCancellation(t, dep, l)
}

func TestCancellationLocalBackendCoalescing(t *testing.T) {
	// Coalesced waiters park on a channel; cancellation must release them
	// without waiting out the window or the round.
	dep, l := deployBackend(t, scec.WithCoalescing[uint64](time.Millisecond, 8))
	checkCancellation(t, dep, l)
}

func TestCancellationSimBackend(t *testing.T) {
	dep, l := deployBackend(t, scec.WithSimulator[uint64](scec.SimExecutorConfig{}))
	checkCancellation(t, dep, l)
}

func TestCancellationFleetBackend(t *testing.T) {
	dep, l := deployBackend(t)
	checkCancellation(t, serveLoopback(t, dep, scec.FleetConfig{}), l)
}
