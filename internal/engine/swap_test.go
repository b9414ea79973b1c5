package engine

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/obs"
)

// reencode re-encodes the test case's matrix at a new r, modelling what the
// adaptive control plane does on a reshape.
func reencode(t *testing.T, tc *testCase[uint64], r int) (*coding.Encoding[uint64], coding.Code[uint64]) {
	t.Helper()
	scheme, err := coding.NewStructured(tc.f, tc.a.Rows(), r)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := scheme.Encode(tc.a, rand.New(rand.NewPCG(3, 14)))
	if err != nil {
		t.Fatal(err)
	}
	return enc, enc.Code
}

func newSwappableQuery(t *testing.T, tc *testCase[uint64]) (*Swappable[uint64], *Query[uint64]) {
	t.Helper()
	sw, err := NewSwappable[uint64](NewLocal(tc.f, tc.enc, obs.New()), tc.enc.Code)
	if err != nil {
		t.Fatal(err)
	}
	q, err := New(tc.f, tc.enc, sw, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = q.Close() })
	return sw, q
}

func TestSwappableServesAcrossDrainedSwap(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	sw, q := newSwappableQuery(t, tc)

	check := func() {
		got, err := q.MulVec(tc.x)
		if err != nil {
			t.Fatalf("MulVec: %v", err)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("row %d = %d, want %d", i, got[i], tc.want[i])
			}
		}
	}
	check()

	// Swap to a different coding parameter behind the drain gate: the new
	// epoch has a different code, and queries keep decoding correctly.
	enc2, code2 := reencode(t, tc, 3)
	err := sw.SwapDrained(context.Background(), func(context.Context) (Executor[uint64], coding.Code[uint64], error) {
		return NewLocal(tc.f, enc2, obs.New()), code2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sw.mu.Lock()
	installed := sw.cur.code
	sw.mu.Unlock()
	if installed != code2 {
		t.Fatal("swap did not install the new code")
	}
	check()
}

func TestSwappableZeroFailuresUnderConcurrentSwaps(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	sw, q := newSwappableQuery(t, tc)

	var queries atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 30; n++ {
				got, err := q.MulVec(tc.x)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if got[i] != tc.want[i] {
						errs <- errors.New("wrong result mid-swap")
						return
					}
				}
				queries.Add(1)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Alternate between r=3 and r=4 epochs while the queries fly (back-to-
	// back swaps would starve the workers, so yield between them). Every
	// round must land wholly inside one epoch — dispatch and decode on the
	// same scheme — and none may fail.
	encA, codeA := reencode(t, tc, 3)
	encB, codeB := reencode(t, tc, 4)
	for i := 0; i < 12; i++ {
		enc, code := encA, codeA
		if i%2 == 1 {
			enc, code = encB, codeB
		}
		err := sw.SwapDrained(context.Background(), func(context.Context) (Executor[uint64], coding.Code[uint64], error) {
			return NewLocal(tc.f, enc, obs.New()), code, nil
		})
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		time.Sleep(time.Millisecond)
	}
	<-done
	close(errs)
	for err := range errs {
		t.Errorf("query failed during swap: %v", err)
	}
	if queries.Load() != 8*30 {
		t.Fatalf("completed %d queries, want %d", queries.Load(), 8*30)
	}
}

func TestSwappableBuildFailureKeepsOldEpoch(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	sw, q := newSwappableQuery(t, tc)

	boom := errors.New("provisioning failed")
	err := sw.SwapDrained(context.Background(), func(context.Context) (Executor[uint64], coding.Code[uint64], error) {
		return nil, nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the build error", err)
	}
	// The failed migration degraded to a pause: the old epoch still serves.
	got, err := q.MulVec(tc.x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != tc.want[i] {
			t.Fatalf("row %d wrong after aborted swap", i)
		}
	}
}

func TestSwappableDrainDeadline(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	sw, _ := newSwappableQuery(t, tc)

	// Hold a round open so the drain cannot finish, then ask for a swap with
	// a short deadline: it must give up cleanly, not deadlock.
	ep, release, err := sw.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_ = ep
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err = sw.SwapDrained(ctx, func(context.Context) (Executor[uint64], coding.Code[uint64], error) {
		t.Error("build ran despite the drain never completing")
		return nil, nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	release()

	// The gate must be fully released: a later swap succeeds.
	enc2, code2 := reencode(t, tc, 3)
	if err := sw.SwapDrained(context.Background(), func(context.Context) (Executor[uint64], coding.Code[uint64], error) {
		return NewLocal(tc.f, enc2, obs.New()), code2, nil
	}); err != nil {
		t.Fatal(err)
	}
}
