package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"

	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/obs/trace"
)

// traceIDOf renders a span's trace ID for exemplar attribution ("" when
// untraced, which keeps the exemplar device-only).
func traceIDOf(sp *trace.Span) string {
	if c := sp.Context(); !c.TraceID.IsZero() {
		return c.TraceID.String()
	}
	return ""
}

// GatherContext fetches the full intermediate result B·T·x from the fleet
// without decoding it: every logical block is fetched from its replica set
// concurrently (racing, hedging, and retrying as needed) and the parts
// concatenate in code device order, m+r values total — bit-identical to the
// unreplicated pipeline, since every replica of block j returns the same
// B_j·T·x. Decoding is owned by the caller (the execution engine's query
// layer). The gather is bounded by ctx in addition to the session's query
// timeout: cancelling ctx cancels the in-flight block races. A span carried
// in ctx parents the fleet.gather span (else the session's tracer, if any,
// starts a fresh trace).
func (s *Session[E]) GatherContext(ctx context.Context, x []E) ([]E, error) {
	if len(x) != s.cols {
		return nil, fmt.Errorf("fleet: input vector has %d entries, want %d", len(x), s.cols)
	}
	parts, err := gather(s, ctx, kindVec, func(ctx context.Context, b *blockState[E], addr string) ([]E, error) {
		y, err := s.client.Compute(ctx, addr, x)
		if err == nil && len(y) != b.want {
			err = fmt.Errorf("fleet: replica %s returned %d values for block %d, want %d", addr, len(y), b.index, b.want)
		}
		return y, err
	})
	if err != nil {
		return nil, err
	}
	y := make([]E, 0, s.code.M()+s.code.R())
	for _, p := range parts {
		y = append(y, p...)
	}
	return y, nil
}

// GatherBatchContext is GatherContext for an l×n input matrix: it returns
// the stacked (m+r)×n intermediate result B·T·X, undecoded, with the same
// per-block fault tolerance.
//
// The gather works on one private x.Clone(): a race does not await its
// cancelled losers, so a hedged or timed-out attempt may still be writing X
// to its socket after the gather has returned, and the caller is free to
// reuse x by then. The clone goes on the wire uncopied and each replica's
// block comes back as one contiguous matrix, stacked with no row-slice
// round trip.
func (s *Session[E]) GatherBatchContext(ctx context.Context, x *matrix.Dense[E]) (*matrix.Dense[E], error) {
	if x.Rows() != s.cols {
		return nil, fmt.Errorf("fleet: input matrix has %d rows, want %d", x.Rows(), s.cols)
	}
	// A device refuses a zero-column batch, and that refusal would count
	// against every replica's breaker; refuse it here instead.
	if x.Cols() < 1 {
		return nil, fmt.Errorf("fleet: input matrix has %d columns, want at least 1", x.Cols())
	}
	x = x.Clone()
	parts, err := gather(s, ctx, kindMat, func(ctx context.Context, b *blockState[E], addr string) (*matrix.Dense[E], error) {
		y, err := s.client.ComputeBatch(ctx, addr, x)
		if err == nil && y.Rows() != b.want {
			err = fmt.Errorf("fleet: replica %s returned %d rows for block %d, want %d", addr, y.Rows(), b.index, b.want)
		}
		return y, err
	})
	if err != nil {
		return nil, err
	}
	return matrix.VStack(parts...), nil
}

// gather is one query's fan-out, shared by the vector and batch paths:
// every logical block is fetched from its replica set on its own goroutine
// and the parts return in code device order for the caller to join. call is
// one replica request including its width check against the block; it is
// built once per query and shared by every block, attempt and retry.
func gather[E comparable, T any](s *Session[E], ctx context.Context, kind string, call func(context.Context, *blockState[E], string) (T, error)) ([]T, error) {
	s.met.queries(kind).Inc()
	qctx, cancel := s.queryContext(ctx)
	defer cancel()
	qctx, gsp := s.startSpan(qctx, trace.SpanFleetGather,
		trace.A(trace.AttrKind, kind), trace.A("blocks", strconv.Itoa(len(s.blocks))))
	defer gsp.End()

	stage := obs.StartStage(s.reg, obs.StageGather)
	parts := make([]T, len(s.blocks))
	errs := make([]error, len(s.blocks))
	var wg sync.WaitGroup
	for j, b := range s.blocks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[j], errs[j] = fetchBlock(s, qctx, b, call)
		}()
	}
	wg.Wait()
	stage.End()
	for _, err := range errs {
		if err != nil {
			s.met.queryErrors(kind).Inc()
			s.jr.PublishDetail(flight.KindQueryError, "", err.Error(), 0, 0)
			gsp.SetError(err)
			return nil, err
		}
	}
	return parts, nil
}

// queryContext derives one query's context: bounded by the session lifetime
// and QueryTimeout, cancelled early when the caller's ctx ends, and carrying
// the caller's span (if any) so the fleet's spans parent under it. The
// session context is the base — a query must not outlive Close — so the
// caller's values do not propagate; only its span and its cancellation do.
func (s *Session[E]) queryContext(ctx context.Context) (context.Context, context.CancelFunc) {
	qctx, cancel := context.WithTimeout(s.ctx, s.cfg.QueryTimeout)
	if ctx == nil {
		return qctx, cancel
	}
	if parent := trace.SpanFromContext(ctx); parent != nil {
		qctx = trace.ContextWithSpan(qctx, parent)
	}
	if ctx.Done() == nil {
		return qctx, cancel // ctx can never be cancelled: nothing to propagate
	}
	stop := context.AfterFunc(ctx, cancel)
	return qctx, func() { stop(); cancel() }
}

// startSpan opens a fleet-side span: a child when ctx carries a span (on
// that span's tracer, so engine-owned traces continue seamlessly), else a
// fresh root on the session's tracer, else a nil no-op span.
func (s *Session[E]) startSpan(ctx context.Context, name string, attrs ...trace.Attr) (context.Context, *trace.Span) {
	if parent := trace.SpanFromContext(ctx); parent != nil {
		return parent.Tracer().StartSpan(ctx, name, attrs...)
	}
	return s.trc.StartRoot(ctx, name, attrs...)
}

// fetchBlock obtains one logical block's intermediate result from its
// replica set: it races the admissible replicas (with hedging and in-race
// failover), and re-runs the race up to MaxRetries extra rounds with
// exponential backoff plus full jitter. Every failure path returns a
// *BlockUnavailableError.
func fetchBlock[E comparable, T any](s *Session[E], ctx context.Context, b *blockState[E], call func(context.Context, *blockState[E], string) (T, error)) (v T, err error) {
	var zero T
	ctx, bsp := s.startSpan(ctx, trace.SpanFleetBlock, trace.A(trace.AttrBlock, strconv.Itoa(b.index)))
	defer func() {
		bsp.SetError(err)
		bsp.End()
	}()
	backoff := s.cfg.RetryBackoff
	var lastErr error
	var buf [candidateBuf]*device
	for round := 0; ; round++ {
		cands := b.candidates(time.Now(), s.cfg.BreakerCooldown, buf[:0])
		if skipped := b.replicaCount() - len(cands); skipped > 0 {
			bsp.AddEvent(trace.EventBreakerSkip, trace.A("skipped", strconv.Itoa(skipped)))
		}
		if len(cands) > 0 {
			v, err := raceReplicas(s, ctx, b, cands, call)
			if err == nil {
				return v, nil
			}
			lastErr = err
		} else if lastErr == nil {
			lastErr = errors.New("no admissible replicas (every breaker open)")
		}
		if ctx.Err() != nil || round >= s.cfg.MaxRetries {
			return zero, &BlockUnavailableError{Block: b.index, Attempts: round + 1, Err: lastErr}
		}
		s.met.retries.Inc()
		s.jr.Publish(flight.KindRetry, "", int64(b.index), int64(round+1))
		bsp.AddEvent(trace.EventRetry, trace.A(trace.AttrRound, strconv.Itoa(round+1)))
		if !sleepCtx(ctx, jitter(backoff)) {
			return zero, &BlockUnavailableError{Block: b.index, Attempts: round + 1, Err: ctx.Err()}
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// replicaCount snapshots the block's current replica-set size.
func (b *blockState[E]) replicaCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.replicas)
}

// attempt is one replica request's outcome inside a race.
type attempt[T any] struct {
	v   T
	err error
	// sp is the attempt's span. A success arrives with it still open, for
	// the race to settle as its win or as a loss; every other attempt
	// arrives settled.
	sp *trace.Span
	// d is the replica the attempt ran against.
	d *device
	// hedged marks a speculative attempt (launched by the hedge timer, not
	// as the leader or a failover), so a winning hedge can be journaled.
	hedged bool
	// lat is the attempt's own latency: how long its call took.
	lat time.Duration
}

// settle files the attempt's outcome on its device's straggler record and
// ends its span. Every launched attempt is settled exactly once.
func (a *attempt[T]) settle(o attemptOutcome) {
	if o == attemptWin {
		a.sp.SetAttr(trace.AttrWin, "true")
	}
	a.d.recordAttempt(o, a.hedged, a.lat)
	a.sp.End()
}

// settleLosers waits out a returned race's attempts still in flight: a
// success that answers after the race returned is a loss, and failed
// attempts have settled themselves.
func settleLosers[T any](results <-chan attempt[T], pending int) {
	for ; pending > 0; pending-- {
		if r := <-results; r.err == nil {
			r.settle(attemptLoss)
		}
	}
}

// raceReplicas runs one first-winner round over the candidate replicas. A
// round with one candidate has nothing to hedge or fail over to, so its
// attempt runs on the calling goroutine — no race context, results channel
// or attempt goroutine — and files its outcome through the same tryReplica,
// won and failed the race uses. Any other round races. The race loop is a
// function of its own so that the lone attempt, which runs the whole
// transport call on this short-lived goroutine's stack, does not also carry
// the race's frame: that stack would outgrow its starting size every query.
func raceReplicas[E comparable, T any](s *Session[E], ctx context.Context, b *blockState[E], cands []*device, call func(context.Context, *blockState[E], string) (T, error)) (T, error) {
	if len(cands) > 1 {
		return race(s, ctx, b, cands, call)
	}
	start := time.Now()
	actx, asp := startAttempt(s, ctx, cands[0], false)
	r := attempt[T]{sp: asp, d: cands[0]}
	tryReplica(s, ctx, actx, b, &r, call)
	if r.err != nil {
		var zero T
		return zero, r.err
	}
	won(s, b, trace.SpanFromContext(ctx), &r, time.Since(start))
	return r.v, nil
}

// race runs a first-winner round over two or more candidates: the leader
// launches immediately, a hedged attempt launches whenever the hedge delay
// elapses with no verdict, and a failed attempt immediately fails over to
// the next candidate. The first success wins and cancels the losers (the
// transport aborts their in-flight I/O); per-candidate at most one attempt
// launches per round.
func race[E comparable, T any](s *Session[E], ctx context.Context, b *blockState[E], cands []*device, call func(context.Context, *blockState[E], string) (T, error)) (T, error) {
	var zero T
	start := time.Now()
	bsp := trace.SpanFromContext(ctx)
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan attempt[T], len(cands))
	launch := func(d *device, hedged bool) {
		// The attempt span is created here (not in the goroutine) so its
		// start time precedes the dial.
		actx, asp := startAttempt(s, rctx, d, hedged)
		go func() {
			r := attempt[T]{sp: asp, d: d, hedged: hedged}
			tryReplica(s, rctx, actx, b, &r, call)
			results <- r
		}()
	}
	next := 0
	launch(cands[next], false)
	next++
	pending := 1
	// A race that returns with attempts in flight leaves them to a drainer;
	// one that heard from every attempt starts no goroutine.
	defer func() {
		if pending > 0 {
			go settleLosers(results, pending)
		}
	}()
	// The hedge timer is re-armed only while a candidate is left to hedge to.
	hedge := time.NewTimer(s.hedgeDelay())
	defer hedge.Stop()
	var lastErr error
	for {
		select {
		case r := <-results:
			pending--
			if r.err == nil {
				won(s, b, bsp, &r, time.Since(start))
				return r.v, nil
			}
			lastErr = r.err
			if next < len(cands) {
				s.met.retries.Inc()
				s.jr.Publish(flight.KindFailover, r.d.addr, int64(b.index), 0)
				bsp.AddEvent(trace.EventFailover, trace.A(trace.AttrDevice, cands[next].addr))
				launch(cands[next], false)
				next++
				pending++
			} else if pending == 0 {
				return zero, lastErr
			}
		case <-hedge.C:
			// A failover may have taken the last candidate since arming.
			if next < len(cands) {
				s.met.hedges.Inc()
				bsp.AddEvent(trace.EventHedge, trace.A(trace.AttrDevice, cands[next].addr))
				launch(cands[next], true)
				next++
				pending++
			}
			if next < len(cands) {
				hedge.Reset(s.hedgeDelay())
			}
		case <-rctx.Done():
			if lastErr == nil {
				lastErr = rctx.Err()
			}
			return zero, lastErr
		}
	}
}

// startAttempt opens one replica attempt's span under the race context.
func startAttempt[E comparable](s *Session[E], rctx context.Context, d *device, hedged bool) (context.Context, *trace.Span) {
	return s.startSpan(rctx, trace.SpanFleetAttempt,
		trace.A(trace.AttrDevice, d.addr), trace.A(trace.AttrHedged, strconv.FormatBool(hedged)))
}

// tryReplica makes the attempt r describes (its device, span and hedge
// flag set) on the calling goroutine under actx, and fills in its outcome. A
// success closes the device's breaker and keeps the span open, for the race
// to settle as its win or as a loss; a failure is filed and settled here.
// rctx is the race's context: its end is what turns a cancelled attempt into
// a loss instead of a fault. r is the caller's, not a return value, because
// this runs under the whole transport call on a short-lived goroutine's
// stack, where every copy of it is frame space.
func tryReplica[E comparable, T any](s *Session[E], rctx, actx context.Context, b *blockState[E], r *attempt[T], call func(context.Context, *blockState[E], string) (T, error)) {
	launched := time.Now()
	r.v, r.err = call(actx, b, r.d.addr)
	r.lat = time.Since(launched)
	if r.err == nil {
		r.d.recordSuccess()
	} else {
		failed(s, rctx, b, r)
	}
}

// won files a race's winning attempt: the winner latency (race start to
// verdict) feeds the adaptive hedge delay, the block's winner histogram with
// the trace ID + device as its bucket exemplar (so a tail bucket on
// /metrics.json links straight to /debug/traces/{id}), and OnWin; a hedge
// win is journaled; and the attempt settles as the win.
func won[E comparable, T any](s *Session[E], b *blockState[E], bsp *trace.Span, r *attempt[T], latency time.Duration) {
	s.lat.observe(latency)
	s.met.winner(b.index).ObserveDurationExemplar(latency, traceIDOf(bsp), r.d.addr)
	if s.cfg.OnWin != nil {
		s.cfg.OnWin(r.d.addr, b.index, latency)
	}
	if r.hedged {
		s.jr.Publish(flight.KindHedgeWin, r.d.addr, int64(b.index), 0)
	}
	r.settle(attemptWin)
}

// failed files an attempt that returned an error. An attempt cancelled
// because its race — or the caller — ended is a loss, not a device verdict.
// Anything else counts against the device's breaker, marks the span, is
// journaled as a timeout when the deadline ran out, and settles as the
// device's error.
func failed[E comparable, T any](s *Session[E], rctx context.Context, b *blockState[E], r *attempt[T]) {
	if errors.Is(r.err, context.Canceled) && rctx.Err() != nil {
		r.settle(attemptLoss)
		return
	}
	r.d.recordFailure(s.cfg.BreakerThreshold)
	r.sp.SetError(r.err)
	if errors.Is(r.err, context.DeadlineExceeded) {
		s.jr.Publish(flight.KindTimeout, r.d.addr, int64(b.index), 0)
	}
	r.settle(attemptError)
}

// hedgeDelay resolves the speculative-request delay: the configured fixed
// value, or — when adaptive — the p95 of recent winner latencies, clamped
// to [1ms, RPCTimeout]. A negative HedgeAfter disables hedging by pushing
// the delay past the per-attempt timeout.
func (s *Session[E]) hedgeDelay() time.Duration {
	if s.cfg.HedgeAfter > 0 {
		return s.cfg.HedgeAfter
	}
	if s.cfg.HedgeAfter < 0 {
		return s.cfg.RPCTimeout + s.cfg.QueryTimeout
	}
	d, ok := s.lat.percentile(0.95)
	if !ok {
		return DefaultHedgeAfter
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > s.cfg.RPCTimeout {
		d = s.cfg.RPCTimeout
	}
	return d
}

// jitter draws a full-jitter delay: uniform in [d/2, d].
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + rand.N(d/2)
}

// sleepCtx sleeps for d unless ctx ends first; it reports whether the full
// sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
