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

// outcome is what a coalesced waiter receives: its decoded column of A·X,
// or the round's error.
type outcome[E comparable] struct {
	ax  []E
	err error
}

// waiter is one MulVec caller parked in a coalescing batch.
type waiter[E comparable] struct {
	ctx context.Context
	x   []E
	out chan outcome[E]
	// sp is the caller's engine.coalesce.wait span: opened at submit, closed
	// when the outcome lands, so the waterfall shows exactly how long each
	// caller spent parked against the window.
	sp *trace.Span
}

// cbatch is one open coalescing batch: the waiters collected so far and the
// window timer that will flush it.
type cbatch[E comparable] struct {
	waiters []*waiter[E]
	timer   *time.Timer
}

// coalescer merges concurrent MulVec calls into MulMat rounds. The first
// caller to arrive while no batch is open becomes the leader: it opens a
// batch and arms the window timer. Followers append themselves. The batch
// executes when the window elapses or the batch fills, whichever comes
// first; the executing goroutine stacks the inputs column-wise, runs one
// batch round, and fans each decoded column back to its caller.
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

// submit parks the caller in the current batch (opening one if needed) and
// blocks until the batch executes or ctx ends. ctx carries the caller's
// query span; a merged round runs under roundContext.
func (c *coalescer[E]) submit(ctx context.Context, x []E) ([]E, error) {
	_, wsp := c.q.startSpan(ctx, trace.SpanCoalesceWait)
	w := &waiter[E]{ctx: ctx, x: x, out: make(chan outcome[E], 1), sp: wsp}
	c.mu.Lock()
	if c.cur == nil {
		b := &cbatch[E]{}
		b.timer = time.AfterFunc(c.window, func() { c.flush(b) })
		c.cur = b
	}
	b := c.cur
	b.waiters = append(b.waiters, w)
	full := len(b.waiters) >= c.max
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
		return o.ax, o.err
	case <-ctx.Done():
		wsp.SetError(ctx.Err())
		wsp.End()
		return nil, ctx.Err()
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

// drain flushes any open batch immediately; the Query calls it on Close so
// no caller is left waiting out a window against a closed executor.
func (c *coalescer[E]) drain() {
	c.mu.Lock()
	b := c.cur
	c.cur = nil
	c.mu.Unlock()
	if b == nil {
		return
	}
	b.timer.Stop()
	c.execute(b.waiters)
}

// execute runs one coalesced round and fans results back. Waiters whose
// context has already ended get their own error and stay out of the round.
// A lone live waiter takes the plain vector path under its own context; a
// merged batch stacks inputs as columns of one l×n matrix, runs a single
// batch dispatch under roundContext, and hands column i of the decoded A·X
// to caller i. The round carries the leader's (first live waiter's) span;
// followers from other traces see a "coalesced" event on their wait spans
// instead, since one round cannot belong to two traces.
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
	if len(ws) == 1 {
		ax, err := c.q.mulVecDirect(ws[0].ctx, ws[0].x)
		ws[0].out <- outcome[E]{ax, err}
		return
	}
	rctx, cancel := roundContext(ws)
	defer cancel()
	rctx, rsp := c.q.startSpan(rctx, trace.SpanEngineRound)
	rsp.SetAttr(trace.AttrBatch, batch)
	x := matrix.New[E](c.q.cols, len(ws))
	for i, w := range ws {
		for p, v := range w.x {
			x.Set(p, i, v)
		}
	}
	ax, err := c.q.mulMatDirect(rctx, x)
	rsp.SetError(err)
	rsp.End()
	if err != nil {
		for _, w := range ws {
			w.out <- outcome[E]{nil, err}
		}
		return
	}
	for i, w := range ws {
		col := make([]E, ax.Rows())
		for p := range col {
			col[p] = ax.At(p, i)
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
