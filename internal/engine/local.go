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
// field-specialized parallel kernels (Encoding.ComputeAllInto). It is the
// zero-infrastructure backend and the engine's default.
type LocalExecutor[E comparable] struct {
	f      field.Field[E]
	enc    *coding.Encoding[E]
	stages *obs.StageRecorder
}

// NewLocal builds a local executor over an encoding. A nil registry records
// stage timings into obs.Default().
func NewLocal[E comparable](f field.Field[E], enc *coding.Encoding[E], reg *obs.Registry) *LocalExecutor[E] {
	return &LocalExecutor[E]{f: f, enc: enc, stages: obs.NewStageRecorder(reg)}
}

// Name implements Executor.
func (e *LocalExecutor[E]) Name() string { return "local" }

// Compute runs every device's B_j·T·X in-process under a compute-stage
// span (and a device.compute trace span, kind vec or mat by X's width, when
// ctx carries a trace).
func (e *LocalExecutor[E]) Compute(ctx context.Context, x, y *matrix.Dense[E]) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	kind := "vec"
	if x.Cols() > 1 {
		kind = "mat"
	}
	_, csp := traceSpan(ctx, trace.SpanDeviceCompute, trace.A(trace.AttrKind, kind))
	defer csp.End()
	defer e.stages.Start(obs.StageCompute).End()
	e.enc.ComputeAllInto(e.f, x, y)
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
