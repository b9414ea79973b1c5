package transport

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
)

// Call is one request in flight toward one device: the send half of a round
// trip, in the shape of net/rpc's Client.Go. Client.Go sends it and returns
// at once; the call arrives on its done channel when the device answers,
// the connection breaks under it, or its dial fails, and its owner then
// calls Receive to finish it. Many calls may share one done channel, so one
// goroutine can collect the replies of a whole fan-out, each told apart by
// its Tag.
//
// The owner allocates a Call and may reuse it once Receive reported it
// finished or Cancel withdrew it: the transport keeps no reference to a
// finished call, and a dial still running for a withdrawn one never touches
// it again.
//
// A reply's Y may sit in a slab from its connection's reply list. An owner
// done with it calls Release, which hands the slab back for a later reply
// on that connection; until then the transport never writes it, and an
// owner that never releases keeps the slab for good.
type Call[E comparable] struct {
	// Tag is the owner's label for the call; the transport never reads it.
	Tag int
	// Y is a compute call's intermediate result B_j·T·X, a V(B_j)×n block
	// (n = 1 for a vector query), once Receive finished the call with a nil
	// Err. The header is the Call's own, so a recycled Call receives
	// without allocating one.
	Y matrix.Dense[E]
	// free is the reply list Y's data was read from, for Release.
	free *slabs[E]
	// Err is the call's outcome, set when Receive finishes it or Cancel
	// withdraws it.
	Err error

	// Set by prepare and read only by the owner.
	ctx     context.Context
	pool    *Pool[E]
	reg     *obs.Registry
	addr    string
	timeout time.Duration // bounds a dial
	finish  func([]trace.SpanData, error)
	start   time.Time
	// private is the one-slot done channel of a blocking round trip, made
	// once per Call.
	private chan *Call[E]

	// resp and lost are written by whoever delivers the call — the
	// connection's read loop or teardown under the connection lock, a
	// sender that found the connection closed, or the dial goroutine — and
	// read by the owner after it received the call from done.
	resp response[E]
	lost bool // the connection died with the call in flight

	mu sync.Mutex
	// gen counts prepares, so a dial goroutine started for an earlier use
	// of the Call recognises that it is stale.
	gen      uint64
	done     chan *Call[E]
	req      request[E]
	mux      *muxConn[E] // the connection the call is registered on
	stream   uint32
	stopDial context.CancelFunc // non-nil while a dial goroutine works for the call
	dialErr  error
	fresh    bool // sent on a connection its own dial negotiated
	final    bool // no retry left: it was used, or the call was withdrawn
	sent     int64
}

// prepare readies c for one request toward addr whose outcome goes to done.
// The caller holds c.mu. Inside a trace it opens the request's rpc.client
// span, which carries the traceparent on the wire.
func (c *Call[E]) prepare(ctx context.Context, p *Pool[E], addr string, timeout time.Duration, reg *obs.Registry, req request[E], done chan *Call[E]) {
	c.gen++
	c.Y, c.Err, c.free = matrix.Dense[E]{}, nil, nil
	c.ctx, c.pool, c.reg, c.addr, c.timeout, c.done = ctx, p, reg, addr, timeout, done
	c.req, c.resp, c.lost = req, response[E]{}, false
	c.mux, c.stream, c.dialErr, c.fresh, c.final, c.sent = nil, 0, nil, false, false, 0
	c.finish = nil
	c.start = time.Now()
	_, c.finish = startClientSpan(ctx, addr, req.kind(), &c.req)
}

// launch sends the prepared call on addr's live connection, or hands the
// dial to a goroutine when there is none, so the sender never waits on a
// peer: the dial's outcome reaches the owner through done like any reply.
// The caller holds c.mu.
func (c *Call[E]) launch() {
	if m := c.pool.live(c.addr); m != nil {
		m.send(c)
		return
	}
	ctx, stop := context.WithCancel(c.ctx)
	c.stopDial = stop
	go c.dial(ctx, c.gen, c.addr, c.timeout, c.reg)
}

// dial negotiates addr's connection for the call's generation gen and sends
// the call on it, or delivers the dial error. A call withdrawn meanwhile is
// left alone; the connection it negotiated stays pooled for later requests.
func (c *Call[E]) dial(ctx context.Context, gen uint64, addr string, timeout time.Duration, reg *obs.Registry) {
	m, fresh, err := c.pool.getMux(ctx, addr, timeout, reg)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen || c.stopDial == nil {
		return
	}
	c.stopDial()
	c.stopDial = nil
	if err != nil {
		c.dialErr = err
		c.deliver()
		return
	}
	c.fresh = fresh
	m.send(c)
}

// deliver hands the call to its owner. The owner sizes done for every call
// it has outstanding, so this never blocks: the read loop delivers under the
// connection lock and must not wait on any one request's owner.
func (c *Call[E]) deliver() {
	select {
	case c.done <- c:
	default:
		panic("transport: a Call's done channel has no room for its reply")
	}
}

// Receive finishes a call its owner received from done, filling Y and Err
// and recording the round trip. It reports false when instead the call
// was sent again and will arrive on done once more: a request on a reused
// connection that died under it is retried once on a fresh connection, as
// every protocol request is idempotent.
func (c *Call[E]) Receive() bool {
	c.mu.Lock()
	if c.lost && !c.fresh && !c.final && c.ctx.Err() == nil {
		c.final, c.lost, c.mux = true, false, nil
		c.launch()
		c.mu.Unlock()
		return false
	}
	m, sent, dialErr := c.mux, c.sent, c.dialErr
	c.mu.Unlock()
	var err error
	switch {
	case dialErr != nil:
		err = dialErr
	case c.lost:
		err = fmt.Errorf("%w: receive from %s", errConnBroken, c.addr)
	default:
		err = verdict(c.addr, &c.req, &c.resp)
		if err == nil {
			err = residues(c.addr, &c.resp)
		}
	}
	c.complete(err, m, sent, c.resp.size)
	return true
}

// Release hands Y's slab back to the connection that read it, for a later
// reply there to reuse, and clears Y. The owner calls it once done with Y
// and must not touch its data afterwards; it is a no-op on a call with no
// reply slab.
func (c *Call[E]) Release() {
	c.free.give(c.Y.RowsView(0, c.Y.Rows()))
	c.Y, c.free = matrix.Dense[E]{}, nil
}

// Cancel withdraws an outstanding call with cause as its error. It reports
// true when nothing more will arrive for the call, which is then finished;
// false when its reply is already queued on done, in which case the owner
// still receives it and Receive finishes it without a retry.
func (c *Call[E]) Cancel(cause error) bool {
	c.mu.Lock()
	c.final = true
	if stop := c.stopDial; stop != nil {
		c.stopDial = nil
		sent := c.sent
		c.mu.Unlock()
		stop()
		c.complete(cause, nil, sent, 0)
		return true
	}
	m, id, sent := c.mux, c.stream, c.sent
	c.mu.Unlock()
	if m == nil || !m.unregister(id, c) {
		return false
	}
	c.complete(cause, m, sent, 0)
	return true
}

// complete settles the call with err: its result, one client observation
// (count, latency, bytes, outcome) and, inside a trace, the end of its
// rpc.client span with the device's spans adopted. The observation goes
// through m's handles when m, the connection the call was sent on, was
// dialed with the call's registry. A reply the call fails goes straight
// back to its list. It drops the request and response so a Call kept for
// reuse holds no slab alive.
func (c *Call[E]) complete(err error, m *muxConn[E], sent, recv int64) {
	if err == nil {
		c.Y.Wrap(c.resp.rows, c.resp.cols, c.resp.y)
		c.free = c.resp.free
	} else {
		c.resp.free.give(c.resp.y)
	}
	c.Err = err
	m.clientRPC(c.reg).record(c.req.kind(), time.Since(c.start), sent, recv, err != nil)
	if c.finish != nil {
		c.finish(c.resp.spans, err)
		c.finish = nil
	}
	c.resp = response[E]{}
	c.req.x = nil
}

// await is the receive half of a blocking round trip: it waits on the
// call's private done channel, bounded by the call's context and timeout.
// A reply that raced the cancel or the deadline is preferred.
func (c *Call[E]) await(timeout time.Duration) error {
	timer := acquireTimer(timeout)
	defer releaseTimer(timer)
	for {
		select {
		case <-c.done:
			if c.Receive() {
				return c.Err
			}
		case <-c.ctx.Done():
			c.abort(ctxErr(c.ctx, fmt.Errorf("transport: receive from %s: %w", c.addr, c.ctx.Err())))
			return c.Err
		case <-timer.C:
			c.abort(fmt.Errorf("transport: receive from %s: %w", c.addr, os.ErrDeadlineExceeded))
			return c.Err
		}
	}
}

// abort withdraws the call with cause, or finishes the reply already queued.
func (c *Call[E]) abort(cause error) {
	if !c.Cancel(cause) {
		<-c.done
		c.Receive()
	}
}

// timers recycles the per-request receive timers. Reuse is safe under the
// timer semantics of Go 1.23 and later, which this module's go directive
// selects: after Stop or Reset returns, no tick from an earlier arming can
// be received, so a recycled timer never fires for the request before.
var timers sync.Pool

// acquireTimer returns a timer armed to fire after d.
func acquireTimer(d time.Duration) *time.Timer {
	if t, ok := timers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// releaseTimer stops t and keeps it for the next acquireTimer.
func releaseTimer(t *time.Timer) {
	t.Stop()
	timers.Put(t)
}

// residues fails a compute reply that carries a Prime element that is not
// a canonical residue (≥ field.Modulus): no honest device computes one, and
// the decode would turn it into a wrong A·x. It is a remote failure like
// any other, so the fleet fails over and strikes the device's breaker.
func residues[E comparable](addr string, r *response[E]) error {
	if i := nonResidue(r.y); i >= 0 {
		return fmt.Errorf("%w: %s: reply element %d is %v, not a residue mod %d", ErrRemote, addr, i, r.y[i], field.Modulus)
	}
	return nil
}

// verdict turns a decoded response into the request's error: the device's
// own failure as ErrRemote, or a protocol error when the device answered a
// different op than it was asked (the callers read Y by the op they sent).
// The response's spans still reach the trace with either error.
func verdict[E comparable](addr string, req *request[E], r *response[E]) error {
	if r.err != "" {
		return fmt.Errorf("%w: %s: %s", ErrRemote, addr, r.err)
	}
	if r.op != req.op|opResponseBit {
		return fmt.Errorf("transport: %s answered op %#x to a %s request", addr, r.op, req.kind())
	}
	return nil
}
