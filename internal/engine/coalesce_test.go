package engine

import (
	"context"
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
)

// coalesceHist reads the engine's coalesced-batch-size histogram for a
// backend out of the registry (get-or-create returns the shared handle).
func coalesceHist(reg *obs.Registry, backend string) *obs.Histogram {
	return reg.Histogram(obs.MetricEngineCoalescedBatchSize,
		"Number of concurrent MulVec callers merged into each coalesced execution round.",
		batchSizeBuckets, obs.L("backend", backend))
}

// TestCoalescingMergesAndMatchesUncoalesced: N concurrent MulVec callers
// through a coalescing query each get exactly the answer an uncoalesced
// query returns for their vector, and the batch-size histogram proves at
// least one round merged multiple callers.
func TestCoalescingMergesAndMatchesUncoalesced(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	reg := obs.New()
	q, err := New[uint64](f, tc.enc, NewLocal(f, tc.enc, reg), Options{
		CoalesceWindow:   200 * time.Millisecond,
		CoalesceMaxBatch: 8,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = q.Close() })
	plain, err := New[uint64](f, tc.enc, NewLocal(f, tc.enc, obs.New()), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = plain.Close() })

	const callers = 16
	inputs := make([][]uint64, callers)
	want := make([][]uint64, callers)
	rng := rand.New(rand.NewPCG(3, 9))
	for i := range inputs {
		inputs[i] = make([]uint64, len(tc.x))
		for j := range inputs[i] {
			inputs[i][j] = f.Rand(rng)
		}
		w, err := plain.MulVec(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}

	got := make([][]uint64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = q.MulVec(inputs[i])
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for p := range got[i] {
			if got[i][p] != want[i][p] {
				t.Fatalf("caller %d entry %d: coalesced %d, uncoalesced %d", i, p, got[i][p], want[i][p])
			}
		}
	}

	h := coalesceHist(reg, "local")
	if h.Sum() != callers {
		t.Fatalf("histogram sum %g, want %d callers served", h.Sum(), callers)
	}
	if h.Count() >= callers {
		t.Fatalf("%d rounds for %d callers: nothing coalesced", h.Count(), callers)
	}
}

// TestCoalescingFullBatchFlushesEarly: with an effectively infinite window,
// a full batch executes immediately — callers do not wait the window out.
func TestCoalescingFullBatchFlushesEarly(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	reg := obs.New()
	const max = 4
	q, err := New[uint64](f, tc.enc, NewLocal(f, tc.enc, reg), Options{
		CoalesceWindow:   time.Hour,
		CoalesceMaxBatch: max,
		Metrics:          reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = q.Close() })

	done := make(chan error, max)
	for i := 0; i < max; i++ {
		x := make([]uint64, len(tc.x))
		copy(x, tc.x)
		go func() {
			got, err := q.MulVec(x)
			if err == nil {
				for p := range got {
					if got[p] != tc.want[p] {
						err = errEntryMismatch
						break
					}
				}
			}
			done <- err
		}()
	}
	timeout := time.After(30 * time.Second)
	for i := 0; i < max; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatal("full batch did not flush before the window")
		}
	}
	h := coalesceHist(reg, "local")
	if h.Count() != 1 || h.Sum() != max {
		t.Fatalf("rounds=%d callers=%g, want one round of %d", h.Count(), h.Sum(), max)
	}
}

// TestCoalescingDrainOnClose: Close flushes a partially filled batch so no
// caller is stranded waiting out a long window.
func TestCoalescingDrainOnClose(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	reg := obs.New()
	q, err := New[uint64](f, tc.enc, NewLocal(f, tc.enc, reg), Options{
		CoalesceWindow: time.Hour,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		got, err := q.MulVec(tc.x)
		if err == nil {
			for p := range got {
				if got[p] != tc.want[p] {
					err = errEntryMismatch
					break
				}
			}
		}
		done <- err
	}()
	// Wait until the caller has parked in the batch before closing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		q.co.mu.Lock()
		parked := q.co.cur != nil && len(q.co.cur.waiters) == 1
		q.co.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("caller never parked in the batch")
		}
		time.Sleep(time.Millisecond)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close left the parked caller waiting")
	}
}

// gatedExec holds every batch round until the test releases it, honouring
// the round's context meanwhile, as a fleet executor cancels its replica
// races when its context ends.
type gatedExec[E comparable] struct {
	Executor[E]
	entered chan struct{}
	release chan struct{}
}

func (g *gatedExec[E]) ComputeBatch(ctx context.Context, x *matrix.Dense[E]) (*matrix.Dense[E], error) {
	g.entered <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Executor.ComputeBatch(ctx, x)
}

// TestCoalescedLeaderCancelLeavesFollowersExact: the caller that opened a
// batch leaves — mid-round, or while still parked — and every follower must
// still get exactly A·x for its own x, with the leader's error confined to
// the leader. A waiter gone before the round runs is not stacked into it.
func TestCoalescedLeaderCancelLeavesFollowersExact(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	const followers = 3
	for _, midRound := range []bool{true, false} {
		name := "while parked"
		if midRound {
			name = "mid-round"
		}
		t.Run(name, func(t *testing.T) {
			reg := obs.New()
			exec := &gatedExec[uint64]{Executor: NewLocal(f, tc.enc, reg), entered: make(chan struct{}, 1), release: make(chan struct{})}
			q, err := New[uint64](f, tc.enc, exec, Options{
				CoalesceWindow:   time.Hour,
				CoalesceMaxBatch: followers + 1,
				Metrics:          reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = q.Close() })
			parked := func(n int) {
				t.Helper()
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
					q.co.mu.Lock()
					got := 0
					if q.co.cur != nil {
						got = len(q.co.cur.waiters)
					}
					q.co.mu.Unlock()
					if got == n {
						return
					}
					if time.Now().After(deadline) {
						t.Fatalf("%d callers parked, want %d", got, n)
					}
				}
			}

			lctx, cancelLeader := context.WithCancel(t.Context())
			defer cancelLeader()
			leader := make(chan error, 1)
			go func() {
				_, err := q.MulVecContext(lctx, tc.x)
				leader <- err
			}()
			parked(1)
			if !midRound {
				cancelLeader()
				if err := <-leader; !errors.Is(err, context.Canceled) {
					t.Fatalf("leader err = %v, want context.Canceled", err)
				}
			}

			rng := rand.New(rand.NewPCG(5, 8))
			xs := make([][]uint64, followers)
			got := make([][]uint64, followers)
			errs := make([]error, followers)
			var wg sync.WaitGroup
			for i := range xs {
				xs[i] = matrix.RandomVec[uint64](f, rng, len(tc.x))
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = q.MulVecContext(t.Context(), xs[i])
				}()
				if i < followers-1 {
					parked(i + 2) // the last follower fills the batch and runs the round
				}
			}
			<-exec.entered
			if midRound {
				cancelLeader()
				if err := <-leader; !errors.Is(err, context.Canceled) {
					t.Fatalf("leader err = %v, want context.Canceled", err)
				}
			}
			close(exec.release)
			wg.Wait()
			for i := range xs {
				if errs[i] != nil {
					t.Fatalf("follower %d failed with the leader's cancel: %v", i, errs[i])
				}
				if want := matrix.MulVec[uint64](f, tc.a, xs[i]); !slices.Equal(got[i], want) {
					t.Fatalf("follower %d: got %v, want %v", i, got[i], want)
				}
			}
			stacked := followers + 1
			if !midRound {
				stacked = followers
			}
			if h := coalesceHist(reg, "local"); h.Count() != 1 || h.Sum() != float64(stacked) {
				t.Fatalf("rounds=%d callers=%g, want one round of %d", h.Count(), h.Sum(), stacked)
			}
		})
	}
}

var errEntryMismatch = errMismatch{}

type errMismatch struct{}

func (errMismatch) Error() string { return "coalesced result diverges from reference" }
