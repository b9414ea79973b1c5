package engine

import (
	"context"

	"github.com/scec/scec/internal/fleet"
	"github.com/scec/scec/internal/matrix"
)

// fleetExecutor adapts a fleet.Session to the Executor interface.
type fleetExecutor[E comparable] struct {
	s     *fleet.Session[E]
	owned bool
}

// WrapSession adapts an existing fleet session to the Executor interface.
// When owned is true, closing the executor closes the session.
func WrapSession[E comparable](s *fleet.Session[E], owned bool) Executor[E] {
	return &fleetExecutor[E]{s: s, owned: owned}
}

// Name implements Executor.
func (e *fleetExecutor[E]) Name() string { return "fleet" }

// Compute gathers B·T·x into y from the replicated fleet (racing, hedging,
// and retrying per block as configured), under the caller's context and
// trace.
func (e *fleetExecutor[E]) Compute(ctx context.Context, x, y []E) error {
	return e.s.GatherInto(ctx, x, y)
}

// ComputeBatch gathers B·T·X into y from the replicated fleet.
func (e *fleetExecutor[E]) ComputeBatch(ctx context.Context, x, y *matrix.Dense[E]) error {
	return e.s.GatherBatchInto(ctx, x, y)
}

// Close shuts the session down if this executor owns it.
func (e *fleetExecutor[E]) Close() error {
	if !e.owned {
		return nil
	}
	return e.s.Close()
}
