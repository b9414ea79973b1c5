// Package engine unifies the repository's execution paths behind one
// pluggable Executor interface. An Executor knows how to evaluate the coded
// compute round B·T·X for an l×n input X — the paper's batch
// generalization, of which a vector query is the l×1 case — over some
// substrate: the in-process kernels (Local), the virtual-clock simulator
// (Sim), or the fault-tolerant TCP fleet (Fleet). The Query layer on top
// owns everything the substrates share: input validation, dispatch
// accounting, the decode stage, and adaptive request coalescing that merges
// concurrent MulVec callers into one MulMat round. MulVec and MulMat are
// the only places a query's shape is told apart; below them every layer has
// one compute path.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
)

// Executor evaluates the coded compute round over one execution substrate.
// Implementations write the raw (undecoded) intermediate results, in scheme
// device order, into staging the Query layer owns and decodes from; they
// hold no reference to it once they return. Executors must be safe for
// concurrent use. The context bounds one round — the fleet backend cancels
// in-flight replica races when it ends — and carries the query's trace span,
// which substrate-side spans parent under.
type Executor[E comparable] interface {
	// Name identifies the backend ("local", "sim", "fleet") and becomes the
	// backend label on the engine's metrics.
	Name() string
	// Compute evaluates B·T·X for an l×n input X (n = 1 for a vector
	// query) into y, an (m+r)×n matrix in scheme order.
	Compute(ctx context.Context, x, y *matrix.Dense[E]) error
	// Close releases the substrate (no-op for in-process backends).
	Close() error
}

// DefaultCoalesceMaxBatch caps a coalesced round's width when Options
// enables coalescing without a bound of its own.
const DefaultCoalesceMaxBatch = 16

// Options configures the Query layer.
type Options struct {
	// CoalesceWindow, when positive, enables request coalescing on a window:
	// the first MulVec caller to arrive opens a batch and waits up to this
	// window for concurrent callers before the merged round executes.
	CoalesceWindow time.Duration
	// GroupCommit, when CoalesceWindow is not positive, enables request
	// coalescing by group commit: a caller that finds no round in flight
	// runs alone, and the callers that arrive while a round is in flight
	// become the next merged round when it returns. With neither set, every
	// MulVec dispatches immediately. The facade sets it for fleet-served
	// deployments, where a merged round saves a round trip per caller.
	GroupCommit bool
	// CoalesceMaxBatch caps how many callers one round merges; under a
	// window a full batch flushes immediately without waiting the window
	// out. Zero means DefaultCoalesceMaxBatch.
	CoalesceMaxBatch int
	// Metrics receives dispatch counters and the coalesced-batch-size
	// histogram. Nil means obs.Default().
	Metrics *obs.Registry
	// Tracer, when non-nil, opens one root span per user query (or continues
	// a trace carried in the caller's context) and records the engine's
	// coalesce/round/decode spans into it. Nil disables engine tracing.
	Tracer *trace.Tracer
}

// Query is the shared serving layer over an Executor: it validates inputs,
// counts dispatches per backend, coalesces concurrent vector queries, and
// decodes results. It is safe for concurrent use.
type Query[E comparable] struct {
	f    field.Field[E]
	code coding.Code[E]
	exec Executor[E]
	cols int
	trc  *trace.Tracer

	vec    *obs.Counter
	mat    *obs.Counter
	stages *obs.StageRecorder
	co     *coalescer[E]

	// staging recycles *stage values, so a warm round allocates neither
	// its buffers nor its matrix headers. columns recycles the m-element
	// buffers a merged round hands each waiter its column in.
	staging sync.Pool
	columns sync.Pool

	closeOnce sync.Once
	closeErr  error
}

// New builds a Query over an executor bound to enc's code shape. Any
// coding.Code works — the structured Eq. (8) scheme and the t-collusion
// design decode through the same seam.
func New[E comparable](f field.Field[E], enc *coding.Encoding[E], exec Executor[E], opts Options) (*Query[E], error) {
	if enc == nil || enc.Code == nil {
		return nil, errors.New("engine: encoding has no code attached")
	}
	if len(enc.Blocks) == 0 {
		return nil, errors.New("engine: encoding has no coded blocks")
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	backend := obs.L("backend", exec.Name())
	q := &Query[E]{
		f:    f,
		code: enc.Code,
		exec: exec,
		cols: enc.Blocks[0].Cols(),
		trc:  opts.Tracer,
		vec:  reg.Counter(obs.MetricEngineDispatchTotal, dispatchHelp, backend, obs.L("kind", "vec")),
		mat:  reg.Counter(obs.MetricEngineDispatchTotal, dispatchHelp, backend, obs.L("kind", "mat")),

		stages: obs.NewStageRecorder(reg),
	}
	if opts.CoalesceWindow > 0 || opts.GroupCommit {
		maxBatch := opts.CoalesceMaxBatch
		if maxBatch <= 0 {
			maxBatch = DefaultCoalesceMaxBatch
		}
		hist := reg.Histogram(obs.MetricEngineCoalescedBatchSize,
			"Number of concurrent MulVec callers merged into each coalesced execution round.",
			batchSizeBuckets, backend)
		q.co = newCoalescer(q, max(opts.CoalesceWindow, 0), maxBatch, hist)
	}
	return q, nil
}

const dispatchHelp = "Executor invocations made by the engine query layer, by backend and query kind."

// batchSizeBuckets are powers of two up to well past any realistic
// coalescing bound.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// Backend returns the executor's name.
func (q *Query[E]) Backend() string { return q.exec.Name() }

// Executor returns the underlying executor (for backend-specific
// introspection such as the simulator's last report).
func (q *Query[E]) Executor() Executor[E] { return q.exec }

// Cols returns the input-vector length the engine accepts.
func (q *Query[E]) Cols() int { return q.cols }

// MulVec computes A·x through the executor and decodes. When coalescing is
// enabled, concurrent callers share batch rounds.
func (q *Query[E]) MulVec(x []E) ([]E, error) {
	return q.MulVecContext(context.Background(), x)
}

// MulVecContext is MulVecInto on a fresh m-element output.
func (q *Query[E]) MulVecContext(ctx context.Context, x []E) ([]E, error) {
	ax := make([]E, q.code.M())
	if err := q.MulVecInto(ctx, ax, x); err != nil {
		return nil, err
	}
	return ax, nil
}

// MulVecInto computes A·x into dst (m entries), bounded by ctx. When the
// engine has a tracer, the query runs under an engine.query.vec span — the
// root of the end-to-end trace unless ctx already carries a span to
// continue. A lone caller's round decodes straight into dst; a caller served
// by a merged round gets its column copied into dst on its own goroutine,
// so nothing writes dst once MulVecInto has returned.
func (q *Query[E]) MulVecInto(ctx context.Context, dst, x []E) (err error) {
	if len(x) != q.cols {
		return fmt.Errorf("engine: input vector has %d entries, want %d", len(x), q.cols)
	}
	if m := q.code.M(); len(dst) != m {
		return fmt.Errorf("engine: output vector has %d entries, want %d", len(dst), m)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx, qsp := q.startSpan(ctx, trace.SpanQueryVec)
	defer func() {
		qsp.SetError(err)
		qsp.End()
	}()
	if q.co != nil {
		return q.co.submit(ctx, x, dst)
	}
	return q.mulVec(ctx, x, dst)
}

// MulMat computes A·X through the executor and decodes. Batch queries are
// never coalesced — they already amortize a round.
func (q *Query[E]) MulMat(x *matrix.Dense[E]) (*matrix.Dense[E], error) {
	return q.MulMatContext(context.Background(), x)
}

// MulMatContext is MulMat bounded by ctx; see MulVecContext for tracing.
func (q *Query[E]) MulMatContext(ctx context.Context, x *matrix.Dense[E]) (y *matrix.Dense[E], err error) {
	if x.Rows() != q.cols {
		return nil, fmt.Errorf("engine: input matrix has %d rows, want %d", x.Rows(), q.cols)
	}
	// Rejected here, before dispatch: a fleet device refuses a zero-column
	// batch, and the fleet would count that refusal against every replica's
	// breaker — one malformed call would lock out the valid ones after it.
	if x.Cols() < 1 {
		return nil, fmt.Errorf("engine: input matrix has %d columns, want at least 1", x.Cols())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, qsp := q.startSpan(ctx, trace.SpanQueryMat)
	defer func() {
		qsp.SetError(err)
		qsp.End()
	}()
	ax := matrix.New[E](q.code.M(), x.Cols())
	st := q.stage()
	defer q.putStage(st)
	if err := q.round(ctx, q.mat, st, x, ax); err != nil {
		return nil, err
	}
	return ax, nil
}

// startSpan opens a query-layer span: a child continuing the trace in ctx
// when it carries one, else a fresh root on the engine's tracer (no-op when
// the engine is untraced and ctx is bare).
func (q *Query[E]) startSpan(ctx context.Context, name string) (context.Context, *trace.Span) {
	backend := trace.A(trace.AttrBackend, q.exec.Name())
	if parent := trace.SpanFromContext(ctx); parent != nil {
		return parent.Tracer().StartSpan(ctx, name, backend)
	}
	return q.trc.StartRoot(ctx, name, backend)
}

// roundExec is one round's coherent view of the execution substrate: the
// executor it dispatches to and the code its results decode under. For a
// fixed executor both come from the Query; over a Swappable they come from
// whichever epoch the round joined, so a swap landing mid-round can never
// make decode use a code the dispatch didn't.
type roundExec[E comparable] struct {
	exec    Executor[E]
	code    coding.Code[E]
	release func()
}

// beginRound snapshots the substrate for one dispatch+decode round. The
// returned release must run when the round is fully done (a swap drains on
// it).
func (q *Query[E]) beginRound(ctx context.Context) (roundExec[E], error) {
	if s, ok := q.exec.(*Swappable[E]); ok {
		ep, release, err := s.acquire(ctx)
		if err != nil {
			return roundExec[E]{}, err
		}
		return roundExec[E]{exec: ep.exec, code: ep.code, release: release}, nil
	}
	return roundExec[E]{exec: q.exec, code: q.code, release: noop}, nil
}

// noop is the package's do-nothing release and cancel function. It is
// declared once at package level because a func literal in generic code
// captures the type dictionary and allocates a closure on every call.
func noop() {}

// stage is one round's recycled state: the buffers for its raw
// intermediate results and, in a merged round, its stacked inputs and
// decoded product, plus the matrix headers over them. A vector round wraps
// the caller's x and dst in xm and axm, so a query of either shape reaches
// the executor as a matrix without allocating a header.
type stage[E comparable] struct {
	y, x, ax    []E
	ym, xm, axm matrix.Dense[E]
}

// stage returns a recycled round state; putStage hands it back. Its
// buffers' contents are stale: every user overwrites them before reading.
func (q *Query[E]) stage() *stage[E] {
	if st, ok := q.staging.Get().(*stage[E]); ok {
		return st
	}
	return new(stage[E])
}

// putStage drops the headers' references to a caller's memory and keeps
// the state for the next round.
func (q *Query[E]) putStage(st *stage[E]) {
	st.xm, st.axm = matrix.Dense[E]{}, matrix.Dense[E]{}
	q.staging.Put(st)
}

// grow returns *b resized to n elements, reallocating only when it is too
// short; the contents are stale.
func grow[E any](b *[]E, n int) []E {
	if cap(*b) < n {
		*b = make([]E, n)
	}
	*b = (*b)[:n]
	return *b
}

// column returns a recycled m-element buffer for a coalesced waiter's
// column; the waiter puts it back into q.columns once copied out.
func (q *Query[E]) column() *[]E {
	if b, ok := q.columns.Get().(*[]E); ok {
		return b
	}
	b := make([]E, q.code.M())
	return &b
}

// mulVec runs one uncoalesced vector round: x and dst travel as l×1 and
// m×1 matrices over the headers in the round's staging.
func (q *Query[E]) mulVec(ctx context.Context, x, dst []E) error {
	st := q.stage()
	defer q.putStage(st)
	st.xm.Wrap(len(x), 1, x)
	st.axm.Wrap(len(dst), 1, dst)
	return q.round(ctx, q.vec, st, &st.xm, &st.axm)
}

// round runs one dispatch+decode round of the l×n input x into dst (m×n):
// dispatch into st's raw-result staging, then decode into dst under a stage
// span. kind counts the dispatch under the caller's entry point (vec or
// mat). An executor holds no reference to the staging once Compute returns,
// so the caller hands st back as soon as round does.
func (q *Query[E]) round(ctx context.Context, kind *obs.Counter, st *stage[E], x, dst *matrix.Dense[E]) error {
	r, err := q.beginRound(ctx)
	if err != nil {
		return err
	}
	defer r.release()
	kind.Inc()
	rows := r.code.M() + r.code.R()
	st.ym.Wrap(rows, x.Cols(), grow(&st.y, rows*x.Cols()))
	if err := r.exec.Compute(ctx, x, &st.ym); err != nil {
		return err
	}
	_, dsp := q.startSpan(ctx, trace.SpanDecode)
	defer dsp.End()
	defer q.stages.Start(obs.StageDecode).End()
	return r.code.DecodeInto(dst, &st.ym)
}

// Close flushes any pending coalesced batch and closes the executor. It is
// idempotent; callers that keep issuing queries after Close get whatever
// the closed executor returns.
func (q *Query[E]) Close() error {
	q.closeOnce.Do(func() {
		if q.co != nil {
			q.co.drain()
		}
		q.closeErr = q.exec.Close()
	})
	return q.closeErr
}
