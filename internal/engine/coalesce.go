package engine

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
)

// outcome is what a coalesced waiter receives: its decoded column of A·X
// in a recycled buffer that the waiter copies into its output and hands
// back, or the round's error.
type outcome[E comparable] struct {
	ax  *[]E
	err error
}

// waiter is one MulVec caller parked in a coalescing batch.
type waiter[E comparable] struct {
	ctx context.Context
	x   []E
	out chan outcome[E]
	// sp is the caller's engine.coalesce.wait span: opened at submit, closed
	// when the outcome lands, so the waterfall shows exactly how long each
	// caller spent parked before its round.
	sp *trace.Span
}

// cbatch is the coalescer's queue: the waiters collected for the next round
// and, under a window, the timer that will flush them.
type cbatch[E comparable] struct {
	waiters []*waiter[E]
	timer   *time.Timer
}

// coalescer merges concurrent MulVec calls into MulMat rounds. Callers queue
// in one batch; what sends the batch out is one of two triggers.
//
// Group commit (no window): a caller that finds no round in flight runs
// alone, on the vector path under its own context. Callers that arrive while
// a round is in flight queue up, and when that round returns up to max of
// them go out as the next merged round, on a goroutine of its own: the
// returning caller never serves anyone else's round. That goroutine keeps
// serving the queue until it finds it empty. A lone caller therefore never
// waits, and concurrent callers batch as deep as the load makes them.
//
// Window (window > 0): the first caller to arrive while no batch is open arms
// the window timer; the batch executes when the window elapses or the batch
// fills, whichever comes first, on the timer's goroutine or the filling
// caller's.
//
// Either way the executing goroutine stacks the inputs column-wise into
// recycled staging, runs one batch round, and fans each decoded column back
// to its caller in a recycled buffer. The round never writes a caller's
// output: a waiter copies its column in itself, so one that has left is
// never written (its column buffer is simply dropped).
type coalescer[E comparable] struct {
	q      *Query[E]
	window time.Duration
	max    int
	hist   *obs.Histogram

	// rounds/merged are lifetime occupancy counters for /debug/engine:
	// batches executed and callers they served.
	rounds atomic.Int64
	merged atomic.Int64

	mu  sync.Mutex
	cur *cbatch[E]
	// inflight (group commit only) is set while a round runs whose return
	// sends the queue out next.
	inflight bool
}

func newCoalescer[E comparable](q *Query[E], window time.Duration, max int, hist *obs.Histogram) *coalescer[E] {
	return &coalescer[E]{q: q, window: window, max: max, hist: hist}
}

// occupancy reports the currently parked caller count.
func (c *coalescer[E]) occupancy() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return 0
	}
	return len(c.cur.waiters)
}

// submit runs the caller alone when group commit finds no round in flight,
// decoding into dst; otherwise it parks the caller in the queue (opening it
// if needed) and blocks until the caller's round executes or ctx ends, then
// copies its column into dst. ctx carries the caller's query span; a merged
// round runs under roundContext.
func (c *coalescer[E]) submit(ctx context.Context, x, dst []E) error {
	c.mu.Lock()
	if c.window == 0 && !c.inflight {
		c.inflight = true
		c.mu.Unlock()
		err := c.q.mulVecDirect(ctx, x, dst)
		if ws := c.next(); ws != nil {
			go c.serve(ws)
		}
		return err
	}
	_, wsp := c.q.startSpan(ctx, trace.SpanCoalesceWait)
	w := &waiter[E]{ctx: ctx, x: x, out: make(chan outcome[E], 1), sp: wsp}
	if c.cur == nil {
		b := &cbatch[E]{}
		if c.window > 0 {
			b.timer = time.AfterFunc(c.window, func() { c.flush(b) })
		}
		c.cur = b
	}
	b := c.cur
	b.waiters = append(b.waiters, w)
	full := c.window > 0 && len(b.waiters) >= c.max
	if full {
		c.cur = nil
	}
	c.mu.Unlock()
	if full {
		b.timer.Stop()
		c.execute(b.waiters)
	}
	// w.out is buffered (size 1), so abandoning the wait on cancellation
	// never blocks the executing goroutine's send.
	select {
	case o := <-w.out:
		wsp.End()
		if o.err == nil {
			copy(dst, *o.ax)
			c.q.columns.Put(o.ax)
		}
		return o.err
	case <-ctx.Done():
		wsp.SetError(ctx.Err())
		wsp.End()
		return ctx.Err()
	}
}

// next is group commit's trigger, called when the round in flight returns:
// it takes up to max queued waiters as the next round or, with none queued,
// records that no round is in flight and returns nil.
func (c *coalescer[E]) next() []*waiter[E] {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.cur
	if b == nil {
		c.inflight = false
		return nil
	}
	if len(b.waiters) <= c.max {
		c.cur = nil
		return b.waiters
	}
	ws := b.waiters[:c.max:c.max]
	b.waiters = b.waiters[c.max:]
	return ws
}

// serve runs group-commit rounds back to back until the queue is empty.
func (c *coalescer[E]) serve(ws []*waiter[E]) {
	for ; ws != nil; ws = c.next() {
		c.execute(ws)
	}
}

// flush executes a batch whose window elapsed, unless a full-batch flush
// (or drain) already claimed it.
func (c *coalescer[E]) flush(b *cbatch[E]) {
	c.mu.Lock()
	if c.cur != b {
		c.mu.Unlock()
		return
	}
	c.cur = nil
	c.mu.Unlock()
	c.execute(b.waiters)
}

// drain executes every queued caller at once, max at a time; the Query calls
// it on Close so no caller is left waiting out a window, or behind a round in
// flight, against a closed executor.
func (c *coalescer[E]) drain() {
	c.mu.Lock()
	b := c.cur
	c.cur = nil
	c.mu.Unlock()
	if b == nil {
		return
	}
	if b.timer != nil {
		b.timer.Stop()
	}
	for ws := b.waiters; len(ws) > 0; {
		n := min(len(ws), c.max)
		c.execute(ws[:n:n])
		ws = ws[n:]
	}
}

// execute runs one coalesced round and fans results back. Waiters whose
// context has already ended get their own error and stay out of the round.
// A lone live waiter takes the plain vector path under its own context; a
// merged batch stacks inputs as columns of one l×n matrix, runs a single
// batch dispatch under roundContext, and hands column i of the decoded A·X
// to caller i. The stacked inputs and the decoded product are recycled
// staging, since only the columns leave the round. The round carries the
// leader's (first live waiter's) span; followers from other traces see a
// "coalesced" event on their wait spans instead, since one round cannot
// belong to two traces.
func (c *coalescer[E]) execute(ws []*waiter[E]) {
	live := ws[:0]
	for _, w := range ws {
		if err := w.ctx.Err(); err != nil {
			w.out <- outcome[E]{nil, err}
			continue
		}
		live = append(live, w)
	}
	ws = live
	if len(ws) == 0 {
		return
	}
	c.hist.Observe(float64(len(ws)))
	c.rounds.Add(1)
	c.merged.Add(int64(len(ws)))
	batch := strconv.Itoa(len(ws))
	for _, w := range ws {
		w.sp.AddEvent(trace.EventCoalesced, trace.A(trace.AttrBatch, batch))
	}
	m, n := c.q.code.M(), len(ws)
	if n == 1 {
		ax := c.q.column()
		if err := c.q.mulVecDirect(ws[0].ctx, ws[0].x, *ax); err != nil {
			c.q.columns.Put(ax)
			ws[0].out <- outcome[E]{nil, err}
			return
		}
		ws[0].out <- outcome[E]{ax, nil}
		return
	}
	rctx, cancel := roundContext(ws)
	defer cancel()
	rctx, rsp := c.q.startSpan(rctx, trace.SpanEngineRound)
	rsp.SetAttr(trace.AttrBatch, batch)
	xb, axb := c.q.stage(c.q.cols*n), c.q.stage(m*n)
	defer c.q.putStage(xb)
	defer c.q.putStage(axb)
	x, ax := matrix.FromSlice(c.q.cols, n, *xb), matrix.FromSlice(m, n, *axb)
	for i, w := range ws {
		for p, v := range w.x {
			x.Set(p, i, v)
		}
	}
	err := c.q.mulMatDirect(rctx, x, ax)
	rsp.SetError(err)
	rsp.End()
	if err != nil {
		for _, w := range ws {
			w.out <- outcome[E]{nil, err}
		}
		return
	}
	for i, w := range ws {
		col := c.q.column()
		for p := range *col {
			(*col)[p] = ax.At(p, i)
		}
		w.out <- outcome[E]{col, nil}
	}
}

// roundContext is a merged round's context. It keeps the leader's values
// (its span among them) but no caller's cancellation, so a leader that
// cancels or times out cannot fail the followers' shared round; each waiter
// still returns on its own context. Its deadline is the latest in the
// batch, or none when some waiter has none, since that waiter would wait
// out any bound.
func roundContext[E comparable](ws []*waiter[E]) (context.Context, context.CancelFunc) {
	ctx := context.WithoutCancel(ws[0].ctx)
	var latest time.Time
	for _, w := range ws {
		d, ok := w.ctx.Deadline()
		if !ok {
			return ctx, noop
		}
		if d.After(latest) {
			latest = d
		}
	}
	return context.WithDeadline(ctx, latest)
}
