package engine

import (
	"context"
	"errors"
	"sync"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/matrix"
)

// ErrSwapInProgress reports that a drain-and-swap was requested while a
// previous one had not finished; the adaptive controller serializes swaps,
// so hitting this means two controllers share one executor.
var ErrSwapInProgress = errors.New("engine: executor swap already in progress")

// errSwappableClosed is returned to queries that arrive after Close.
var errSwappableClosed = errors.New("engine: swappable executor is closed")

// epoch is one immutable (executor, code) generation of a Swappable. A
// round joins exactly one epoch for its whole lifetime — dispatch and decode
// see the same code even if a swap lands mid-round — and the epoch's
// WaitGroup lets a swap drain the rounds still inside it.
type epoch[E comparable] struct {
	exec Executor[E]
	code coding.Code[E]
	wg   sync.WaitGroup
}

// Swappable is an Executor whose substrate can be replaced while queries are
// in flight. It is the engine-side seam of the adaptive control plane: the
// fleet adapter re-provisions a session under a new plan (possibly with a
// different r, hence a different scheme) and swaps it in without failing a
// single query. SwapDrained parks new rounds (they wait, they never fail),
// drains the rounds in flight, builds the replacement while the world is
// quiet, installs it, and releases the parked rounds into the new epoch — a
// round decoded under the old code must never race a device re-provisioned
// under the new one.
type Swappable[E comparable] struct {
	mu     sync.Mutex
	cur    *epoch[E]
	gate   chan struct{} // non-nil while a drained swap is parked; closed to release
	closed bool

	closeOnce sync.Once
	closeErr  error
}

// NewSwappable wraps exec as the first epoch. The Swappable owns exec (and
// every successor installed by a swap): closing the Swappable closes the
// current substrate, and a completed swap closes the one it replaced.
func NewSwappable[E comparable](exec Executor[E], code coding.Code[E]) (*Swappable[E], error) {
	if exec == nil || code == nil {
		return nil, errors.New("engine: swappable executor needs a substrate and a code")
	}
	return &Swappable[E]{cur: &epoch[E]{exec: exec, code: code}}, nil
}

// Name identifies the backend for metric labels. The substrate underneath
// changes over the Swappable's life, so it reports the stable composition
// rather than any one epoch's name.
func (s *Swappable[E]) Name() string { return "adaptive" }

// acquire joins the current epoch, waiting out any parked swap first. The
// returned release must be called when the round's dispatch AND decode are
// both done.
func (s *Swappable[E]) acquire(ctx context.Context) (*epoch[E], func(), error) {
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, nil, errSwappableClosed
		}
		if s.gate == nil {
			ep := s.cur
			ep.wg.Add(1)
			s.mu.Unlock()
			return ep, ep.wg.Done, nil
		}
		ch := s.gate
		s.mu.Unlock()
		select {
		case <-ch:
			// Swap finished (or aborted): re-check against the new state.
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// Compute runs one round into y against whichever epoch is current when
// the round starts.
func (s *Swappable[E]) Compute(ctx context.Context, x, y *matrix.Dense[E]) error {
	ep, release, err := s.acquire(ctx)
	if err != nil {
		return err
	}
	defer release()
	return ep.exec.Compute(ctx, x, y)
}

// SwapDrained performs a full drain-and-swap: new rounds park on the gate
// (blocked, never failed), in-flight rounds drain, build constructs the
// replacement substrate while nothing is mid-round, and the parked rounds
// release into the new epoch. On any failure — drain deadline, build error —
// the old epoch stays installed and the parked rounds resume against it, so
// a failed migration degrades to a pause, never to dropped requests.
func (s *Swappable[E]) SwapDrained(ctx context.Context, build func(context.Context) (Executor[E], coding.Code[E], error)) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errSwappableClosed
	}
	if s.gate != nil {
		s.mu.Unlock()
		return ErrSwapInProgress
	}
	gate := make(chan struct{})
	s.gate = gate
	old := s.cur
	s.mu.Unlock()
	release := func() {
		s.mu.Lock()
		s.gate = nil
		s.mu.Unlock()
		close(gate)
	}

	drained := make(chan struct{})
	go func() {
		// If the drain deadline fires first this goroutine outlives the
		// call, which is harmless: it owns nothing but the wait.
		old.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		release()
		return ctx.Err()
	}

	next, code, err := build(ctx)
	if err != nil {
		release()
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		release()
		_ = next.Close()
		return errSwappableClosed
	}
	s.cur = &epoch[E]{exec: next, code: code}
	s.mu.Unlock()
	release()
	return old.exec.Close()
}

// Close closes the current substrate. Idempotent.
func (s *Swappable[E]) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		cur := s.cur
		s.mu.Unlock()
		s.closeErr = cur.exec.Close()
	})
	return s.closeErr
}
