package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"strconv"
	"time"

	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/transport"
)

// traceIDOf renders a span's trace ID for exemplar attribution ("" when
// untraced, which keeps the exemplar device-only).
func traceIDOf(sp *trace.Span) string {
	if c := sp.Context(); !c.TraceID.IsZero() {
		return c.TraceID.String()
	}
	return ""
}

// Causes a query gives the attempts it withdraws. A cancellation is a loss,
// not a device verdict; a deadline strikes the device's breaker and is
// journaled as a timeout.
var (
	errQueryOver     = fmt.Errorf("fleet: query over: %w", context.Canceled)
	errSessionClosed = fmt.Errorf("fleet: session closed: %w", context.Canceled)
	errQueryTimeout  = fmt.Errorf("fleet: QueryTimeout elapsed: %w", context.DeadlineExceeded)
	errNoAdmissible  = errors.New("no admissible replicas (every breaker open)")
)

// GatherContext is GatherInto on a fresh m+r-element result.
func (s *Session[E]) GatherContext(ctx context.Context, x []E) ([]E, error) {
	y := make([]E, s.code.M()+s.code.R())
	if err := s.GatherInto(ctx, x, y); err != nil {
		return nil, err
	}
	return y, nil
}

// GatherInto fetches the full intermediate result B·T·x from the fleet into
// y (m+r values) without decoding it: every logical block is fetched from
// its replica set at once (racing, hedging, and retrying as needed) and
// each block's winning reply is copied into its rows of y, in code device
// order — bit-identical to the unreplicated pipeline, since every replica
// of block j returns the same B_j·T·x. Decoding is owned by the caller (the
// execution engine's query layer). The copies happen on the caller's
// goroutine, and nothing writes y once GatherInto has returned; on an error
// y holds no meaningful result. The gather is bounded by ctx in addition to
// the session's query timeout: cancelling ctx withdraws the requests in
// flight. A span carried in ctx parents the fleet.gather span (else the
// session's tracer, if any, starts a fresh trace).
func (s *Session[E]) GatherInto(ctx context.Context, x, y []E) error {
	if len(x) != s.cols {
		return fmt.Errorf("fleet: input vector has %d entries, want %d", len(x), s.cols)
	}
	if n := s.code.M() + s.code.R(); len(y) != n {
		return fmt.Errorf("fleet: result vector has %d entries, want %d", len(y), n)
	}
	q := s.acquire(ctx, kindVec)
	defer s.release(q)
	q.x, q.y = x, y
	return q.run()
}

// GatherBatchInto is GatherInto for an l×n input matrix: it fills y with
// the stacked (m+r)×n intermediate result B·T·X, undecoded, with the same
// per-block fault tolerance, each block's winning reply copied into its
// rows. X goes on the wire uncopied by the fleet: every request frame is on
// its way before its send returns (see transport.Client.Go), and a request
// still waiting for its dial is withdrawn before the gather returns, so the
// caller may reuse x as soon as it does.
func (s *Session[E]) GatherBatchInto(ctx context.Context, x, y *matrix.Dense[E]) error {
	if x.Rows() != s.cols {
		return fmt.Errorf("fleet: input matrix has %d rows, want %d", x.Rows(), s.cols)
	}
	// A device refuses a zero-column batch, and that refusal would count
	// against every replica's breaker; refuse it here instead.
	if x.Cols() < 1 {
		return fmt.Errorf("fleet: input matrix has %d columns, want at least 1", x.Cols())
	}
	if n := s.code.M() + s.code.R(); y.Rows() != n || y.Cols() != x.Cols() {
		return fmt.Errorf("fleet: result matrix is %dx%d, want %dx%d", y.Rows(), y.Cols(), n, x.Cols())
	}
	q := s.acquire(ctx, kindMat)
	defer s.release(q)
	q.xm, q.ym = x, y
	return q.run()
}

// query is one gather's state: the whole fan-out runs as one loop on the
// caller's goroutine. It sends every block's leader, then waits on one
// channel, where the transport delivers each reply tagged with its attempt,
// on one timer armed to the earliest deadline (a hedge, a retry backoff, an
// attempt's RPCTimeout, the query's QueryTimeout), and on the caller's and
// the session's contexts. Sessions recycle query states, so a warm query
// allocates none of this.
type query[E comparable] struct {
	s    *Session[E]
	ctx  context.Context
	kind string
	x    []E              // a vector query's input
	xm   *matrix.Dense[E] // a batch query's input
	// y or ym receives each block's winning reply: the caller's result.
	y  []E
	ym *matrix.Dense[E]

	blocks []fetch[E]
	// atts holds every attempt this state ever made, indexed by the Tag of
	// its call; free lists the idle ones and live the ones in flight.
	atts []*attempt[E]
	free []int
	live []*attempt[E]
	// ch receives the calls. Its capacity covers every attempt a query can
	// have in flight (each block's round launches at most its replica
	// budget), so the transport never blocks delivering into it.
	ch    chan *transport.Call[E]
	timer *time.Timer

	deadline time.Time
	open     int   // blocks neither won nor failed
	err      error // the first block failure, in block order
}

// fetch is one logical block's state within a query.
type fetch[E comparable] struct {
	b   *blockState[E]
	ctx context.Context // carries the block span
	sp  *trace.Span
	// cands is this round's candidate snapshot, in buf unless it spills;
	// next indexes the next one to launch.
	buf   [candidateBuf]*device
	cands []*device
	next  int
	// budget caps a round's candidates at the replica count the query's
	// channel was sized for.
	budget  int
	pending int // attempts in flight
	round   int
	backoff time.Duration
	lastErr error
	// roundStart starts the winner latency; hedgeAt and retryAt are the
	// block's armed deadlines (zero: none).
	roundStart, hedgeAt, retryAt time.Time
	done                         bool
}

// attempt is one replica request of a query.
type attempt[E comparable] struct {
	call  transport.Call[E]
	block int
	// d is the replica the attempt ran against, and sp its span.
	d  *device
	sp *trace.Span
	// hedged marks a speculative attempt (launched by the hedge deadline,
	// not as the leader or a failover), so a winning hedge can be journaled.
	hedged bool
	// launched and lat time the attempt's own call; deadline is when
	// RPCTimeout withdraws it.
	launched, deadline time.Time
	lat                time.Duration
}

// acquire takes a recycled query state, or builds one.
func (s *Session[E]) acquire(ctx context.Context, kind string) *query[E] {
	q, _ := s.queries.Get().(*query[E])
	if q == nil {
		q = &query[E]{s: s, blocks: make([]fetch[E], len(s.blocks)), timer: time.NewTimer(time.Hour)}
		q.timer.Stop()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	q.ctx, q.kind, q.err, q.open = ctx, kind, nil, 0
	return q
}

// release drops the query's references to inputs, results and spans and
// keeps the state for the next query. run has withdrawn or received every
// call, so nothing can still arrive on the channel.
func (s *Session[E]) release(q *query[E]) {
	q.ctx, q.x, q.xm, q.y, q.ym = nil, nil, nil, nil, nil
	for j := range q.blocks {
		q.blocks[j] = fetch[E]{}
	}
	s.queries.Put(q)
}

// run executes the query's gather. Every failure path returns a
// *BlockUnavailableError for the first failed block.
func (q *query[E]) run() error {
	s := q.s
	s.met.queries(q.kind).Inc()
	ctx, gsp := s.startSpan(q.ctx, trace.SpanFleetGather,
		trace.A(trace.AttrKind, q.kind), trace.A("blocks", strconv.Itoa(len(s.blocks))))
	defer gsp.End()
	stage := obs.StartStage(s.reg, obs.StageGather)
	now := time.Now()
	q.deadline = now.Add(s.cfg.QueryTimeout)
	need := 0
	for j, b := range s.blocks {
		q.blocks[j].budget = b.replicaCount()
		need += q.blocks[j].budget
	}
	if cap(q.ch) < need {
		q.ch = make(chan *transport.Call[E], need)
	}
	for j, b := range s.blocks {
		f := &q.blocks[j]
		f.b, f.backoff = b, s.cfg.RetryBackoff
		f.ctx, f.sp = s.startSpan(ctx, trace.SpanFleetBlock, trace.A(trace.AttrBlock, strconv.Itoa(b.index)))
		q.open++
		q.startRound(f, now)
		if q.err != nil {
			break
		}
	}
	callerDone := q.ctx.Done()
	for q.open > 0 && q.err == nil {
		next := q.tick(time.Now())
		if q.open == 0 || q.err != nil {
			break
		}
		q.timer.Reset(time.Until(next))
		select {
		case c := <-q.ch:
			q.arrive(c)
		case <-q.timer.C:
		case <-callerDone:
			q.abort(q.ctx.Err())
		case <-s.ctx.Done():
			q.abort(errSessionClosed)
		}
	}
	q.timer.Stop()
	q.finish()
	stage.End()
	if q.err != nil {
		s.met.queryErrors(q.kind).Inc()
		s.jr.PublishDetail(flight.KindQueryError, "", q.err.Error(), 0, 0)
		gsp.SetError(q.err)
		return q.err
	}
	return nil
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

// startRound snapshots the block's admissible replicas and launches the
// leader, arming the hedge when there is somebody to hedge to. A round with
// no candidate fails at once.
func (q *query[E]) startRound(f *fetch[E], now time.Time) {
	s := q.s
	f.retryAt, f.hedgeAt = time.Time{}, time.Time{}
	f.cands = f.b.candidates(now, s.cfg.BreakerCooldown, f.buf[:0])
	if skipped := f.b.replicaCount() - len(f.cands); skipped > 0 {
		f.sp.AddEvent(trace.EventBreakerSkip, trace.A("skipped", strconv.Itoa(skipped)))
	}
	if len(f.cands) > f.budget {
		f.cands = f.cands[:f.budget]
	}
	f.next = 0
	if len(f.cands) == 0 {
		if f.lastErr == nil {
			f.lastErr = errNoAdmissible
		}
		q.roundFailed(f, now)
		return
	}
	f.roundStart = now
	q.launch(f, false, now)
	q.armHedge(f, now)
}

// armHedge sets the block's hedge deadline while a candidate is left to
// hedge to and hedging is on.
func (q *query[E]) armHedge(f *fetch[E], now time.Time) {
	f.hedgeAt = time.Time{}
	if f.next < len(f.cands) {
		if d, ok := q.s.hedgeDelay(); ok {
			f.hedgeAt = now.Add(d)
		}
	}
}

// launch sends the block's next candidate an attempt.
func (q *query[E]) launch(f *fetch[E], hedged bool, now time.Time) {
	s := q.s
	d := f.cands[f.next]
	f.next++
	a := q.slot()
	a.block, a.d, a.hedged = f.b.index, d, hedged
	a.launched, a.deadline, a.lat = now, now.Add(s.cfg.RPCTimeout), 0
	var actx context.Context
	actx, a.sp = s.startSpan(f.ctx, trace.SpanFleetAttempt,
		trace.A(trace.AttrDevice, d.addr), trace.A(trace.AttrHedged, strconv.FormatBool(hedged)))
	f.pending++
	q.live = append(q.live, a)
	if q.xm != nil {
		s.client.GoBatch(actx, d.addr, q.xm, &a.call, q.ch)
	} else {
		s.client.Go(actx, d.addr, q.x, &a.call, q.ch)
	}
}

// slot returns an idle attempt, making one when every attempt is busy.
func (q *query[E]) slot() *attempt[E] {
	if n := len(q.free); n > 0 {
		a := q.atts[q.free[n-1]]
		q.free = q.free[:n-1]
		return a
	}
	a := &attempt[E]{}
	a.call.Tag = len(q.atts)
	q.atts = append(q.atts, a)
	return a
}

// unlive removes a from the attempts in flight.
func (q *query[E]) unlive(a *attempt[E]) {
	for i, l := range q.live {
		if l == a {
			last := len(q.live) - 1
			q.live[i] = q.live[last]
			q.live[last] = nil
			q.live = q.live[:last]
			return
		}
	}
}

// tick fires every deadline that has passed by now — the query's, each
// attempt's RPCTimeout, each block's retry and hedge — and returns the
// earliest one still armed.
func (q *query[E]) tick(now time.Time) time.Time {
	s := q.s
	if !now.Before(q.deadline) {
		q.abort(errQueryTimeout)
		return now
	}
	next := q.deadline
	for i := 0; i < len(q.live); {
		a := q.live[i]
		if now.Before(a.deadline) {
			next = earliest(next, a.deadline)
			i++
			continue
		}
		err := fmt.Errorf("fleet: replica %s: no answer within RPCTimeout %v: %w", a.d.addr, s.cfg.RPCTimeout, context.DeadlineExceeded)
		if !a.call.Cancel(err) {
			// The answer is already queued: take it when it arrives.
			a.deadline = q.deadline
			i++
			continue
		}
		q.unlive(a)
		f := &q.blocks[a.block]
		f.pending--
		a.lat = now.Sub(a.launched)
		q.fail(f, a, err, now)
		if q.err != nil {
			return now
		}
	}
	for j := range q.blocks {
		f := &q.blocks[j]
		if f.done {
			continue
		}
		if !f.retryAt.IsZero() && !now.Before(f.retryAt) {
			q.startRound(f, now)
			if q.err != nil {
				return now
			}
		}
		if !f.hedgeAt.IsZero() && !now.Before(f.hedgeAt) {
			if f.next < len(f.cands) {
				s.met.hedges.Inc()
				f.sp.AddEvent(trace.EventHedge, trace.A(trace.AttrDevice, f.cands[f.next].addr))
				q.launch(f, true, now)
			}
			q.armHedge(f, now)
		}
		for _, t := range [2]time.Time{f.retryAt, f.hedgeAt} {
			if !t.IsZero() {
				next = earliest(next, t)
			}
		}
	}
	for _, a := range q.live {
		next = earliest(next, a.deadline)
	}
	return next
}

func earliest(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

// arrive handles one call the transport delivered.
func (q *query[E]) arrive(c *transport.Call[E]) {
	if !c.Receive() {
		return // sent again on a fresh connection
	}
	a := q.atts[c.Tag]
	q.unlive(a)
	f := &q.blocks[a.block]
	f.pending--
	now := time.Now()
	a.lat = now.Sub(a.launched)
	err := c.Err
	if err == nil {
		if q.xm != nil && (c.M.Rows() != f.b.want || c.M.Cols() != q.xm.Cols()) {
			err = fmt.Errorf("fleet: replica %s returned a %dx%d block %d, want %dx%d", a.d.addr, c.M.Rows(), c.M.Cols(), f.b.index, f.b.want, q.xm.Cols())
		} else if q.xm == nil && len(c.Y) != f.b.want {
			err = fmt.Errorf("fleet: replica %s returned %d values for block %d, want %d", a.d.addr, len(c.Y), f.b.index, f.b.want)
		}
	}
	switch {
	case err != nil:
		q.fail(f, a, err, now)
	case f.done:
		a.d.recordSuccess()
		q.settle(a, attemptLoss) // answered after the block was decided
	default:
		a.d.recordSuccess()
		q.win(f, a, now)
	}
}

// win files the block's first success, copies its reply into the block's
// rows of the caller's result, and withdraws the block's other attempts.
func (q *query[E]) win(f *fetch[E], a *attempt[E], now time.Time) {
	f.done = true
	q.open--
	if q.ym != nil {
		copy(q.ym.RowsView(f.b.off, f.b.off+f.b.want), a.call.M.RowsView(0, f.b.want))
	} else {
		copy(q.y[f.b.off:f.b.off+f.b.want], a.call.Y)
	}
	q.won(f, a, now.Sub(f.roundStart))
	for i := 0; i < len(q.live); {
		l := q.live[i]
		if l.block != f.b.index || !l.call.Cancel(errQueryOver) {
			i++
			continue
		}
		q.unlive(l)
		f.pending--
		q.settle(l, attemptLoss)
	}
	f.sp.End()
}

// fail files an attempt that ended in err and moves the block on: the next
// candidate when one is left, or — once the round has heard from every
// attempt — a retry round or the block's failure.
func (q *query[E]) fail(f *fetch[E], a *attempt[E], err error, now time.Time) {
	s := q.s
	addr := a.d.addr
	q.failed(a, err) // frees a
	if f.done {
		return
	}
	f.lastErr = err
	if f.next < len(f.cands) {
		s.met.retries.Inc()
		s.jr.Publish(flight.KindFailover, addr, int64(f.b.index), 0)
		f.sp.AddEvent(trace.EventFailover, trace.A(trace.AttrDevice, f.cands[f.next].addr))
		q.launch(f, false, now)
		if f.next == len(f.cands) {
			f.hedgeAt = time.Time{}
		}
		return
	}
	if f.pending == 0 {
		q.roundFailed(f, now)
	}
}

// roundFailed starts the backoff before the block's next round, with full
// jitter, or fails the block once MaxRetries extra rounds have run.
func (q *query[E]) roundFailed(f *fetch[E], now time.Time) {
	s := q.s
	if f.round >= s.cfg.MaxRetries {
		q.blockFailed(f, &BlockUnavailableError{Block: f.b.index, Attempts: f.round + 1, Err: f.lastErr})
		return
	}
	f.round++
	s.met.retries.Inc()
	s.jr.Publish(flight.KindRetry, "", int64(f.b.index), int64(f.round))
	f.sp.AddEvent(trace.EventRetry, trace.A(trace.AttrRound, strconv.Itoa(f.round)))
	f.hedgeAt = time.Time{}
	f.retryAt = now.Add(jitter(f.backoff))
	if f.backoff *= 2; f.backoff > time.Second {
		f.backoff = time.Second
	}
}

// blockFailed ends an undecided block with err, the query's error when it
// is the first.
func (q *query[E]) blockFailed(f *fetch[E], err error) {
	f.done = true
	q.open--
	f.sp.SetError(err)
	f.sp.End()
	if q.err == nil {
		q.err = err
	}
}

// abort ends the query early with cause: the caller's context, the
// session's, or the query deadline. Attempts in flight are withdrawn —
// losses when cause is a cancellation, device timeouts when it is a
// deadline — and every undecided block fails with cause.
func (q *query[E]) abort(cause error) {
	loss := errors.Is(cause, context.Canceled)
	for i := 0; i < len(q.live); {
		a := q.live[i]
		if !a.call.Cancel(cause) {
			i++
			continue
		}
		q.unlive(a)
		q.blocks[a.block].pending--
		if loss {
			q.settle(a, attemptLoss)
		} else {
			q.failed(a, cause)
		}
	}
	for j := range q.blocks {
		if f := &q.blocks[j]; !f.done {
			q.blockFailed(f, &BlockUnavailableError{Block: f.b.index, Attempts: f.round + 1, Err: cause})
		}
	}
}

// finish ends a query's loop: undecided blocks close their spans, attempts
// still in flight are withdrawn as losses, and the answers already queued
// for them are received and settled, so the channel is empty for the next
// query that reuses this state and no late answer can reach it.
func (q *query[E]) finish() {
	for j := range q.blocks {
		if f := &q.blocks[j]; !f.done {
			f.done = true
			f.sp.End()
		}
	}
	for i := 0; i < len(q.live); {
		a := q.live[i]
		if !a.call.Cancel(errQueryOver) {
			i++
			continue
		}
		q.unlive(a)
		q.settle(a, attemptLoss)
	}
	for len(q.live) > 0 {
		q.arrive(<-q.ch)
	}
}

// settle files the attempt's outcome on its device's straggler record, ends
// its span, hands its reply slab back to the transport — a winner's after
// win copied it out, a loser's unread — and frees its slot. Every launched
// attempt is settled exactly once.
func (q *query[E]) settle(a *attempt[E], o attemptOutcome) {
	if o == attemptWin {
		a.sp.SetAttr(trace.AttrWin, "true")
	}
	a.d.recordAttempt(o, a.hedged, a.lat)
	a.sp.End()
	a.d, a.sp = nil, nil
	a.call.Release()
	a.call.Err = nil
	q.free = append(q.free, a.call.Tag)
}

// won files a block's winning attempt: the winner latency (round start to
// verdict) feeds the adaptive hedge delay, the block's winner histogram with
// the trace ID + device as its bucket exemplar (so a tail bucket on
// /metrics.json links straight to /debug/traces/{id}), and OnWin; a hedge
// win is journaled; and the attempt settles as the win.
func (q *query[E]) won(f *fetch[E], a *attempt[E], latency time.Duration) {
	s := q.s
	s.lat.observe(latency)
	s.met.winner(f.b.index).ObserveDurationExemplar(latency, traceIDOf(f.sp), a.d.addr)
	if s.cfg.OnWin != nil {
		s.cfg.OnWin(a.d.addr, f.b.index, latency)
	}
	if a.hedged {
		s.jr.Publish(flight.KindHedgeWin, a.d.addr, int64(f.b.index), 0)
	}
	q.settle(a, attemptWin)
}

// failed files an attempt that ended in err. An attempt cancelled because
// the caller left or the session closed is a loss, not a device verdict.
// Anything else — a deadline included — counts against the device's
// breaker, marks the span, is journaled as a timeout when a deadline ran
// out, and settles as the device's error.
func (q *query[E]) failed(a *attempt[E], err error) {
	if errors.Is(err, context.Canceled) && (q.ctx.Err() != nil || q.s.ctx.Err() != nil) {
		q.settle(a, attemptLoss)
		return
	}
	s := q.s
	a.d.recordFailure(s.cfg.BreakerThreshold)
	a.sp.SetError(err)
	if isTimeout(err) {
		s.jr.Publish(flight.KindTimeout, a.d.addr, int64(a.block), 0)
	}
	q.settle(a, attemptError)
}

// isTimeout reports whether err is a deadline running out: the query's,
// the caller's, an attempt's RPCTimeout, or the transport's own I/O
// deadline on a dial or handshake bounded by the same RPCTimeout.
func isTimeout(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, os.ErrDeadlineExceeded)
}

// replicaCount snapshots the block's current replica-set size.
func (b *blockState[E]) replicaCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.replicas)
}

// hedgeDelay resolves the speculative-request delay: the configured fixed
// value, or — when adaptive — the p95 of recent winner latencies, clamped
// to [1ms, RPCTimeout]. ok is false when a negative HedgeAfter disables
// hedging.
func (s *Session[E]) hedgeDelay() (d time.Duration, ok bool) {
	if s.cfg.HedgeAfter > 0 {
		return s.cfg.HedgeAfter, true
	}
	if s.cfg.HedgeAfter < 0 {
		return 0, false
	}
	d, ok = s.lat.percentile(0.95)
	if !ok {
		return DefaultHedgeAfter, true
	}
	return min(max(d, time.Millisecond), s.cfg.RPCTimeout), true
}

// jitter draws a full-jitter delay: uniform in [d/2, d].
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + rand.N(d/2)
}
