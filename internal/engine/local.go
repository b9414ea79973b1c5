package engine

import (
	"context"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
)

// LocalExecutor evaluates the compute round in-process with the
// field-specialized parallel kernels (Encoding.ComputeAllInto and
// ComputeAllBatchInto). It is the zero-infrastructure backend and the engine's
// default.
type LocalExecutor[E comparable] struct {
	f   field.Field[E]
	enc *coding.Encoding[E]
	reg *obs.Registry
}

// NewLocal builds a local executor over an encoding. A nil registry records
// stage timings into obs.Default().
func NewLocal[E comparable](f field.Field[E], enc *coding.Encoding[E], reg *obs.Registry) *LocalExecutor[E] {
	return &LocalExecutor[E]{f: f, enc: enc, reg: reg}
}

// Name implements Executor.
func (e *LocalExecutor[E]) Name() string { return "local" }

// Compute runs every device's B_j·T·x in-process under a compute-stage
// span (and a device.compute trace span when ctx carries a trace).
func (e *LocalExecutor[E]) Compute(ctx context.Context, x, y []E) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, csp := traceSpan(ctx, trace.SpanDeviceCompute, trace.A(trace.AttrKind, "vec"))
	defer csp.End()
	defer obs.StartStage(e.reg, obs.StageCompute).End()
	e.enc.ComputeAllInto(e.f, x, y)
	return nil
}

// ComputeBatch runs every device's B_j·T·X in-process under a
// compute-stage span (and a device.compute trace span when ctx carries a
// trace).
func (e *LocalExecutor[E]) ComputeBatch(ctx context.Context, x, y *matrix.Dense[E]) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	_, csp := traceSpan(ctx, trace.SpanDeviceCompute, trace.A(trace.AttrKind, "mat"))
	defer csp.End()
	defer obs.StartStage(e.reg, obs.StageCompute).End()
	e.enc.ComputeAllBatchInto(e.f, x, y)
	return nil
}

// traceSpan opens a child span when ctx carries one; otherwise it no-ops.
// In-process executors use it so they only trace inside an existing trace.
func traceSpan(ctx context.Context, name string, attrs ...trace.Attr) (context.Context, *trace.Span) {
	if parent := trace.SpanFromContext(ctx); parent != nil {
		return parent.Tracer().StartSpan(ctx, name, attrs...)
	}
	return ctx, nil
}

// Close implements Executor; the local backend holds no resources.
func (e *LocalExecutor[E]) Close() error { return nil }
