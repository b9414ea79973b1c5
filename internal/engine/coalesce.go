package engine

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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

// waiter is one MulVec caller parked in a coalescing batch. Waiters are
// recycled, each keeping its channel: submit takes one from the
// coalescer's free list and gives it back once it has received the
// outcome, so no round can still send to it. A waiter whose caller left on
// its context is never given back, because its round may yet send.
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
//
// A parked caller allocates nothing: its waiter comes from the free list,
// and the queue's slice is an executed round's, handed back through spare.
// Group commit queues in one batch for the coalescer's life; a window
// opens a batch per round, because its timer's callback tells its batch
// from a later one by identity, and recycles only the batch's slice.
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
	// queue is group commit's one batch; cur points at it while a caller
	// is queued.
	queue cbatch[E]
	// spare is an executed round's waiter slice, cleared, kept as the
	// backing array of the next batch to open.
	spare []*waiter[E]
	// free holds the waiters whose callers have received their outcomes.
	free []*waiter[E]
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
		err := c.q.mulVec(ctx, x, dst)
		if ws := c.next(nil); ws != nil {
			go c.serve(ws)
		}
		return err
	}
	_, wsp := c.q.startSpan(ctx, trace.SpanCoalesceWait)
	w := c.getWaiter()
	w.ctx, w.x, w.sp = ctx, x, wsp
	if c.cur == nil {
		c.open()
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
		c.recycle(b.waiters)
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
		c.putWaiter(w)
		return o.err
	case <-ctx.Done():
		wsp.SetError(ctx.Err())
		wsp.End()
		return ctx.Err()
	}
}

// getWaiter takes a waiter from the free list, or makes one with its buffered
// channel. c.mu is held.
func (c *coalescer[E]) getWaiter() *waiter[E] {
	if n := len(c.free); n > 0 {
		w := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return w
	}
	return &waiter[E]{out: make(chan outcome[E], 1)}
}

// putWaiter returns a waiter whose outcome its caller has received to the
// free list, dropping its references to the caller's context, input and
// span.
func (c *coalescer[E]) putWaiter(w *waiter[E]) {
	w.ctx, w.x, w.sp = nil, nil, nil
	c.mu.Lock()
	c.free = append(c.free, w)
	c.mu.Unlock()
}

// open makes a batch current: group commit's queue, on the slice next left
// in it, or a fresh window batch on the spare slice, with its timer armed.
// c.mu is held.
func (c *coalescer[E]) open() {
	if c.window == 0 {
		c.cur = &c.queue
		return
	}
	b := &cbatch[E]{waiters: c.spare}
	c.spare = nil
	b.timer = time.AfterFunc(c.window, func() { c.flush(b) })
	c.cur = b
}

// recycle keeps a window round's executed waiter slice as spare.
func (c *coalescer[E]) recycle(ws []*waiter[E]) {
	c.mu.Lock()
	c.keepSpare(ws)
	c.mu.Unlock()
}

// keepSpare keeps an executed round's waiter slice as spare, cleared,
// unless a spare is already kept. c.mu is held.
func (c *coalescer[E]) keepSpare(ws []*waiter[E]) {
	if c.spare == nil {
		clear(ws)
		c.spare = ws[:0]
	}
}

// next is group commit's trigger, called when the round in flight returns
// with done, the waiter slice it executed (nil for a lone caller's round).
// It keeps done as spare, then takes up to max queued waiters as the next
// round or, with none queued, records that no round is in flight and
// returns nil. A round that takes the whole queue leaves the spare slice in
// its place, so group commit rotates two slices. Beyond max, the round
// takes the first max into the spare slice and the rest move to the front
// of the queue: a round's slice never shares a backing array with the
// queue.
func (c *coalescer[E]) next(done []*waiter[E]) []*waiter[E] {
	c.mu.Lock()
	defer c.mu.Unlock()
	if done != nil {
		c.keepSpare(done)
	}
	b := c.cur
	if b == nil {
		c.inflight = false
		return nil
	}
	ws := b.waiters
	if len(ws) <= c.max {
		c.cur = nil
		b.waiters, c.spare = c.spare, nil
		return ws
	}
	ws = append(c.spare, ws[:c.max]...)
	c.spare = nil
	n := copy(b.waiters, b.waiters[c.max:])
	clear(b.waiters[n:])
	b.waiters = b.waiters[:n]
	return ws
}

// serve runs group-commit rounds back to back until the queue is empty.
func (c *coalescer[E]) serve(ws []*waiter[E]) {
	for ws != nil {
		c.execute(ws)
		ws = c.next(ws)
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
	c.recycle(b.waiters)
}

// drain executes every queued caller at once, max at a time; the Query calls
// it on Close so no caller is left waiting out a window, or behind a round in
// flight, against a closed executor.
func (c *coalescer[E]) drain() {
	c.mu.Lock()
	b := c.cur
	c.cur = nil
	var ws []*waiter[E]
	if b != nil {
		ws, b.waiters = b.waiters, nil
	}
	c.mu.Unlock()
	if b == nil {
		return
	}
	if b.timer != nil {
		b.timer.Stop()
	}
	for len(ws) > 0 {
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
		if err := c.q.mulVec(ws[0].ctx, ws[0].x, *ax); err != nil {
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
	st := c.q.stage()
	defer c.q.putStage(st)
	x, ax := &st.xm, &st.axm
	x.Wrap(c.q.cols, n, grow(&st.x, c.q.cols*n))
	ax.Wrap(m, n, grow(&st.ax, m*n))
	for i, w := range ws {
		for p, v := range w.x {
			x.Set(p, i, v)
		}
	}
	err := c.q.round(rctx, c.q.mat, st, x, ax)
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
	ctx := context.Context(&detachedCtx{ws[0].ctx})
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

// detachedCtx is context.WithoutCancel with a pointer receiver: parent's
// values, no deadline, never done. The standard library's type has a value
// receiver on Value, so each lookup made on it directly boxes a copy — one
// allocation per span every layer below a merged round opens. This one is
// allocated once per round. The only observable difference is
// context.Cause, which would see the leader's cause through it; nothing in
// the module calls Cause.
type detachedCtx struct{ parent context.Context }

func (*detachedCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (*detachedCtx) Done() <-chan struct{}       { return nil }
func (*detachedCtx) Err() error                  { return nil }
func (c *detachedCtx) Value(key any) any         { return c.parent.Value(key) }
