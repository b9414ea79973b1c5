package engine

import (
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
)

// chunkDifferential pins the decorator's one claim: on one encoding, the sum
// of the column chunks' raw results is the raw result of one executor over
// the whole encoding — for the structured and the Cauchy (t = 2) code, with a
// ragged last chunk, a width equal to l, and a width past it (one chunk).
// equal is bit-identity for the exact fields and the field's tolerance for
// Real.
func chunkDifferential[E comparable](t *testing.T, f field.Field[E], randE func(*rand.Rand) E, equal func(a, b E) bool) {
	const m, l, n = 9, 7, 3
	rows, r, err := coding.UniformCollusionRows(m, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	codes := map[string]func() (coding.Code[E], error){
		"structured": func() (coding.Code[E], error) { return coding.NewStructured(f, m, 4) },
		"cauchy-t2":  func() (coding.Code[E], error) { return coding.NewCollusion(f, m, r, 2, rows) },
	}
	for name, build := range codes {
		rng := rand.New(rand.NewPCG(77, 5))
		code, err := build()
		if err != nil {
			t.Fatal(err)
		}
		a, xm := matrix.New[E](m, l), matrix.New[E](l, n)
		for i := 0; i < m; i++ {
			for j := 0; j < l; j++ {
				a.Set(i, j, randE(rng))
			}
		}
		x := make([]E, l)
		for i := range x {
			x[i] = randE(rng)
			for j := 0; j < n; j++ {
				xm.Set(i, j, randE(rng))
			}
		}
		enc, err := code.Encode(a, rng)
		if err != nil {
			t.Fatal(err)
		}
		whole := NewLocal(f, enc, obs.New())
		rows := m + code.R()
		wantVec, wantMat := make([]E, rows), matrix.New[E](rows, n)
		if err := whole.Compute(context.Background(), vec(x), vec(wantVec)); err != nil {
			t.Fatal(err)
		}
		if err := whole.Compute(context.Background(), xm, wantMat); err != nil {
			t.Fatal(err)
		}

		for _, width := range []int{1, 3, l, 50} { // 3 leaves a ragged 1-column chunk
			binds := 0
			exec, chunks, err := NewChunked(f, enc, width, func(part *coding.Encoding[E]) (Executor[E], error) {
				binds++
				return NewLocal(f, part, obs.New()), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := (l + min(width, l) - 1) / min(width, l); binds != want || chunks != want {
				t.Fatalf("%s width %d: bound %d chunks, reported %d, want %d", name, width, binds, chunks, want)
			}
			// Stale staging, as a recycled buffer holds: the executor must
			// overwrite every entry.
			gotVec, gotMat := make([]E, rows), matrix.New[E](rows, n)
			for i := range gotVec {
				gotVec[i] = randE(rng)
				for j := 0; j < n; j++ {
					gotMat.Set(i, j, randE(rng))
				}
			}
			if err := exec.Compute(context.Background(), vec(x), vec(gotVec)); err != nil {
				t.Fatal(err)
			}
			if err := exec.Compute(context.Background(), xm, gotMat); err != nil {
				t.Fatal(err)
			}
			for i := range wantVec {
				if !equal(gotVec[i], wantVec[i]) {
					t.Fatalf("%s width %d: Compute[%d] = %v, unchunked %v", name, width, i, gotVec[i], wantVec[i])
				}
				for j := 0; j < n; j++ {
					if !equal(gotMat.At(i, j), wantMat.At(i, j)) {
						t.Fatalf("%s width %d: Compute l×%d [%d,%d] = %v, unchunked %v", name, width, n, i, j, gotMat.At(i, j), wantMat.At(i, j))
					}
				}
			}
			if err := exec.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestChunkedMatchesUnchunkedRawResults(t *testing.T) {
	t.Run("prime", func(t *testing.T) {
		f := field.Prime{}
		chunkDifferential[uint64](t, f, f.Rand, func(a, b uint64) bool { return a == b })
	})
	t.Run("gf256", func(t *testing.T) {
		chunkDifferential[byte](t, field.GF256{}, func(rng *rand.Rand) byte { return byte(rng.UintN(256)) },
			func(a, b byte) bool { return a == b })
	})
	t.Run("real", func(t *testing.T) {
		f := field.Real{Tol: 1e-6}
		chunkDifferential[float64](t, f, func(rng *rand.Rand) float64 { return float64(rng.IntN(2000)-1000) / 16 }, f.Equal)
	})
}

// stubPart is one chunk's executor for the failure tests: it counts itself
// in flight, optionally waits for ctx to end, and returns err (or ctx's).
type stubPart struct {
	inFlight *atomic.Int32
	started  *sync.WaitGroup
	err      error
	block    bool
}

func (s *stubPart) Name() string { return "stub" }
func (s *stubPart) Close() error { return nil }
func (s *stubPart) Compute(ctx context.Context, _, _ *matrix.Dense[uint64]) error {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.started.Done()
	if s.block {
		<-ctx.Done()
		return ctx.Err()
	}
	return s.err
}

// TestChunkedFirstErrorInChunkOrderNoLeak: a failing chunk or a cancelled
// context surfaces as the first error in chunk order, and
// Compute returns, at one column or several, only once every chunk's
// goroutine has.
func TestChunkedFirstErrorInChunkOrderNoLeak(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, f.Rand)
	errB, errC := errors.New("chunk b failed"), errors.New("chunk c failed")
	var inFlight atomic.Int32
	var started sync.WaitGroup
	build := func(parts []*stubPart) Executor[uint64] {
		next := 0
		exec, _, err := NewChunked(f, tc.enc, 2, func(*coding.Encoding[uint64]) (Executor[uint64], error) {
			p := parts[next]
			p.inFlight, p.started = &inFlight, &started
			next++
			return p, nil
		})
		if err != nil || next != len(parts) {
			t.Fatalf("bound %d chunks (%v), want %d", next, err, len(parts))
		}
		return exec
	}

	// l = 5 at width 2 is three chunks. Chunk 0 succeeds, 1 and 2 fail.
	exec := build([]*stubPart{{}, {err: errB}, {err: errC}})
	for _, call := range []func() error{
		func() error { return exec.Compute(context.Background(), vec(tc.x), matrix.New[uint64](tc.rows(), 1)) },
		func() error {
			return exec.Compute(context.Background(), tc.xm, matrix.New[uint64](tc.rows(), tc.xm.Cols()))
		},
	} {
		started.Add(3)
		err := call()
		if !errors.Is(err, errB) || errors.Is(err, errC) || !strings.Contains(err.Error(), "chunk 1") {
			t.Fatalf("err = %v, want chunk 1's", err)
		}
		if n := inFlight.Load(); n != 0 {
			t.Fatalf("%d chunk goroutines still running after the round returned", n)
		}
	}

	// Every chunk blocks until the caller cancels.
	exec = build([]*stubPart{{block: true}, {block: true}, {block: true}})
	ctx, cancel := context.WithCancel(context.Background())
	started.Add(3)
	go func() {
		started.Wait()
		cancel()
	}()
	err := exec.Compute(ctx, vec(tc.x), matrix.New[uint64](tc.rows(), 1))
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "chunk 0") {
		t.Fatalf("err = %v, want chunk 0's context.Canceled", err)
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d chunk goroutines still running after cancellation returned", n)
	}
}

// TestChunkedCoalescedRoundsCountedOnce: with coalescing above the chunk
// decorator, 8 concurrent callers are recorded once in the batch-size
// histogram — the engine coalesces before the fan-out — not once per chunk,
// and each merged round is one dispatch.
func TestChunkedCoalescedRoundsCountedOnce(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, f.Rand)
	reg := obs.New()
	exec, _, err := NewChunked(f, tc.enc, 2, func(part *coding.Encoding[uint64]) (Executor[uint64], error) {
		return NewLocal(f, part, reg), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := New[uint64](f, tc.enc, exec, Options{CoalesceWindow: 200 * time.Millisecond, CoalesceMaxBatch: 8, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = q.Close() })

	const callers = 8
	errs := make([]error, callers)
	got := make([][]uint64, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = q.MulVec(tc.x)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for p := range got[i] {
			if got[i][p] != tc.want[p] {
				t.Fatalf("caller %d entry %d: %d, want %d", i, p, got[i][p], tc.want[p])
			}
		}
	}
	h := coalesceHist(reg, "local")
	if h.Sum() != callers {
		t.Fatalf("histogram served %g callers, want %d (3 chunks must not triple it)", h.Sum(), callers)
	}
	dispatches := q.vec.Value() + q.mat.Value()
	if int64(h.Count()) != dispatches {
		t.Fatalf("%d coalesced rounds but %d dispatches", h.Count(), dispatches)
	}
}

// vec wraps a vector as the l×1 matrix every executor computes on.
func vec[E comparable](x []E) *matrix.Dense[E] { return matrix.FromSlice(len(x), 1, x) }
