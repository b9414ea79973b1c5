package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
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

// waitParked waits until n callers are queued in q's coalescer.
func waitParked[E comparable](t *testing.T, q *Query[E], n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		got := q.co.occupancy()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d callers parked, want %d", got, n)
		}
	}
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
	waitParked(t, q, 1) // close only once the caller is in the batch
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

func (g *gatedExec[E]) ComputeBatch(ctx context.Context, x, y *matrix.Dense[E]) error {
	g.entered <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	return g.Executor.ComputeBatch(ctx, x, y)
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

			lctx, cancelLeader := context.WithCancel(t.Context())
			defer cancelLeader()
			leader := make(chan error, 1)
			go func() {
				_, err := q.MulVecContext(lctx, tc.x)
				leader <- err
			}()
			waitParked(t, q, 1)
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
					waitParked(t, q, i+2) // the last follower fills the batch and runs the round
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

// heldExec holds every vector round until the test releases it, as a slow
// round in flight would, honouring the round's context meanwhile; batch
// rounds pass straight through.
type heldExec[E comparable] struct {
	Executor[E]
	entered chan struct{}
	release chan struct{}
}

func newHeldExec[E comparable](exec Executor[E]) *heldExec[E] {
	return &heldExec[E]{Executor: exec, entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (h *heldExec[E]) Compute(ctx context.Context, x, y []E) error {
	select {
	case h.entered <- struct{}{}:
	default:
	}
	select {
	case <-h.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	return h.Executor.Compute(ctx, x, y)
}

// groupCommit builds a group-commit query over exec, as the facade binds a
// fleet.
func groupCommit[E comparable](t *testing.T, tc *testCase[E], exec Executor[E], reg *obs.Registry) *Query[E] {
	t.Helper()
	q, err := New(tc.f, tc.enc, exec, Options{GroupCommit: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestGroupCommitLoneCallerNeverWaits: a sequential stream through a
// group-commit engine over a fleet never finds a round in flight, so every
// query runs alone on the vector path at once: no batch dispatch, no merged
// round.
func TestGroupCommitLoneCallerNeverWaits(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, f.Rand)
	reg := obs.New()
	q := groupCommit(t, tc, serveFleet(t, f, tc.enc), reg)
	t.Cleanup(func() { _ = q.Close() })
	const queries = 50
	for i := range queries {
		got, err := q.MulVec(tc.x)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !slices.Equal(got, tc.want) {
			t.Fatalf("query %d: got %v, want %v", i, got, tc.want)
		}
	}
	if vec, mat := q.vec.Value(), q.mat.Value(); vec != queries || mat != 0 {
		t.Fatalf("%d vector and %d batch dispatches, want %d and 0", vec, mat, queries)
	}
	if h := coalesceHist(reg, "fleet"); h.Count() != 0 {
		t.Fatalf("%d merged rounds for a sequential stream, want 0", h.Count())
	}
}

// TestGroupCommitMergesConcurrentCallers: 16 concurrent callers, each
// querying its own vectors through a group-commit engine over a fleet, get
// exactly A·x every time, in fewer rounds than queries.
func TestGroupCommitMergesConcurrentCallers(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, f.Rand)
	reg := obs.New()
	q := groupCommit(t, tc, serveFleet(t, f, tc.enc), reg)
	t.Cleanup(func() { _ = q.Close() })
	const callers, rounds = 16, 20
	errs := make(chan error, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(i), 17))
			for range rounds {
				x := matrix.RandomVec[uint64](f, rng, len(tc.x))
				got, err := q.MulVec(x)
				if err == nil && !slices.Equal(got, matrix.MulVec[uint64](f, tc.a, x)) {
					err = fmt.Errorf("caller %d: got %v for x=%v", i, got, x)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if dispatches := q.vec.Value() + q.mat.Value(); q.mat.Value() == 0 || dispatches >= callers*rounds {
		t.Fatalf("%d rounds (%d batch) for %d queries: nothing merged", dispatches, q.mat.Value(), callers*rounds)
	}
}

// TestGroupCommitCancelledWaiterLeftOut: a caller that cancels while queued
// behind a round in flight gets its own context error and is not stacked
// into the next round; the callers queued with it still get exactly A·x.
func TestGroupCommitCancelledWaiterLeftOut(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, f.Rand)
	reg := obs.New()
	exec := newHeldExec(serveFleet(t, f, tc.enc))
	q := groupCommit(t, tc, exec, reg)
	t.Cleanup(func() { _ = q.Close() })

	lone := make(chan error, 1)
	go func() {
		got, err := q.MulVec(tc.x)
		if err == nil && !slices.Equal(got, tc.want) {
			err = errEntryMismatch
		}
		lone <- err
	}()
	<-exec.entered
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	cancelled := make(chan error, 1)
	go func() {
		_, err := q.MulVecContext(ctx, tc.x)
		cancelled <- err
	}()
	waitParked(t, q, 1)

	rng := rand.New(rand.NewPCG(6, 2))
	const followers = 2
	xs := make([][]uint64, followers)
	got := make([][]uint64, followers)
	errs := make([]error, followers)
	var wg sync.WaitGroup
	for i := range xs {
		xs[i] = matrix.RandomVec[uint64](f, rng, len(tc.x))
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = q.MulVec(xs[i])
		}()
		waitParked(t, q, i+2)
	}
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued caller's err = %v, want its own context.Canceled", err)
	}
	close(exec.release)
	if err := <-lone; err != nil {
		t.Fatalf("round in flight: %v", err)
	}
	wg.Wait()
	for i := range xs {
		if errs[i] != nil {
			t.Fatalf("follower %d: %v", i, errs[i])
		}
		if want := matrix.MulVec[uint64](f, tc.a, xs[i]); !slices.Equal(got[i], want) {
			t.Fatalf("follower %d: got %v, want %v", i, got[i], want)
		}
	}
	if h := coalesceHist(reg, "fleet"); h.Count() != 1 || h.Sum() != followers {
		t.Fatalf("rounds=%d callers=%g, want one round of %d without the cancelled caller", h.Count(), h.Sum(), followers)
	}
}

// TestGroupCommitDepartedWaiterDstUntouched: a caller that cancels while
// its merged round is running gets context.Canceled at once, and the round
// — which still decodes that caller's column — never writes the dst the
// caller gave MulVecInto; the caller merged with it still gets exactly A·x.
func TestGroupCommitDepartedWaiterDstUntouched(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, f.Rand)
	gate := &gatedExec[uint64]{Executor: serveFleet(t, f, tc.enc), entered: make(chan struct{}, 1), release: make(chan struct{})}
	held := newHeldExec[uint64](gate)
	q := groupCommit(t, tc, held, obs.New())
	t.Cleanup(func() { _ = q.Close() })

	lone := make(chan error, 1)
	go func() {
		_, err := q.MulVec(tc.x)
		lone <- err
	}()
	<-held.entered
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	const sentinel = 0xdead
	dst := make([]uint64, len(tc.want))
	for i := range dst {
		dst[i] = sentinel
	}
	departed := make(chan error, 1)
	go func() { departed <- q.MulVecInto(ctx, dst, tc.x) }()
	waitParked(t, q, 1)
	x := matrix.RandomVec[uint64](f, rand.New(rand.NewPCG(8, 3)), len(tc.x))
	follower := make(chan error, 1)
	go func() {
		got, err := q.MulVec(x)
		if err == nil && !slices.Equal(got, matrix.MulVec[uint64](f, tc.a, x)) {
			err = errEntryMismatch
		}
		follower <- err
	}()
	waitParked(t, q, 2)
	close(held.release) // the lone round returns; the merged round starts
	<-gate.entered
	cancel()
	if err := <-departed; !errors.Is(err, context.Canceled) {
		t.Fatalf("departed caller's err = %v, want context.Canceled", err)
	}
	close(gate.release)
	if err := <-lone; err != nil {
		t.Fatalf("lone round: %v", err)
	}
	// The follower's answer comes from the same fan-out as the departed
	// caller's column, so the round is done with both by now.
	if err := <-follower; err != nil {
		t.Fatalf("follower: %v", err)
	}
	for i, v := range dst {
		if v != sentinel {
			t.Fatalf("dst[%d] = %d after its caller left: the round wrote a departed caller's output", i, v)
		}
	}
}

// TestGroupCommitCloseAnswersQueuedCallers: Close with callers queued behind
// a round in flight answers every one of them at once, exactly, and once the
// devices are gone no goroutine is left behind.
func TestGroupCommitCloseAnswersQueuedCallers(t *testing.T) {
	baseline := runtime.NumGoroutine()
	f := field.Prime{}
	tc := newCase[uint64](t, f, f.Rand)
	fleetExec, stopDevices := startFleet(t, f, tc.enc)
	defer stopDevices()
	exec := newHeldExec(fleetExec)
	q := groupCommit(t, tc, exec, obs.New())

	lone := make(chan error, 1)
	go func() {
		_, err := q.MulVec(tc.x)
		lone <- err
	}()
	<-exec.entered
	rng := rand.New(rand.NewPCG(9, 4))
	const queued = 3
	answered := make(chan error, queued)
	for i := range queued {
		x := matrix.RandomVec[uint64](f, rng, len(tc.x))
		go func() {
			got, err := q.MulVec(x)
			if err == nil && !slices.Equal(got, matrix.MulVec[uint64](f, tc.a, x)) {
				err = errEntryMismatch
			}
			answered <- err
		}()
		waitParked(t, q, i+1)
	}
	closed := make(chan error, 1)
	go func() { closed <- q.Close() }()
	timeout := time.After(10 * time.Second)
	for range queued {
		select {
		case err := <-answered:
			if err != nil {
				t.Fatalf("queued caller: %v", err)
			}
		case <-timeout:
			t.Fatal("Close left a queued caller waiting behind the round in flight")
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	close(exec.release)
	<-lone // its round ends against the closed executor; only its return matters
	stopDevices()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

var errEntryMismatch = errMismatch{}

type errMismatch struct{}

func (errMismatch) Error() string { return "coalesced result diverges from reference" }
