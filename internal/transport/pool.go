package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/obs/trace"
)

// Pool owns the persistent client-side connections to a set of devices:
// one multiplexed connection per address, shared by every in-flight
// request. Clients share the per-element-type package pool by default;
// tests that need connection isolation set Client.Pool.
type Pool[E comparable] struct {
	mu      sync.Mutex
	entries map[string]*poolEntry[E]

	// calls recycles the Calls of blocking round trips.
	calls sync.Pool
}

// NewPool returns an empty pool with default tuning.
func NewPool[E comparable]() *Pool[E] {
	return &Pool[E]{entries: make(map[string]*poolEntry[E])}
}

var (
	sharedPoolMu sync.Mutex
	sharedPools  = map[any]any{} // zero E → *Pool[E]
)

// SharedPool returns the process-wide pool for element type E. All
// default-configured clients and clouds share it, so one device gets one
// connection no matter how many Client values talk to it.
func SharedPool[E comparable]() *Pool[E] {
	var z E
	sharedPoolMu.Lock()
	defer sharedPoolMu.Unlock()
	if p, ok := sharedPools[any(z)].(*Pool[E]); ok {
		return p
	}
	p := NewPool[E]()
	sharedPools[any(z)] = p
	return p
}

type poolEntry[E comparable] struct {
	mu         sync.Mutex
	connecting chan struct{} // non-nil while one caller negotiates
	mux        *muxConn[E]
}

func (p *Pool[E]) entry(addr string) *poolEntry[E] {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.entries[addr]
	if e == nil {
		e = &poolEntry[E]{}
		p.entries[addr] = e
	}
	return e
}

// liveMux returns addr's pooled connection, or nil when there is none. It
// never creates a pool entry: read-only accessors are asked about standbys
// and quarantined devices that were never dialed.
func (p *Pool[E]) liveMux(addr string) *muxConn[E] {
	p.mu.Lock()
	e := p.entries[addr]
	p.mu.Unlock()
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mux
}

// LastContact reports when addr was last heard from on a live multiplexed
// connection (its hello or a response frame). The fleet prober treats a
// recent LastContact as a successful health check and skips its ping; an
// idle connection's contact ages, so the prober pings it, and that ping is
// what keeps the device's idle deadline from cutting the connection.
func (p *Pool[E]) LastContact(addr string) (time.Time, bool) {
	m := p.liveMux(addr)
	if m == nil {
		return time.Time{}, false
	}
	t := m.lastIn.Load()
	if t == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, t), true
}

// LastRTT reports the most recent round-trip time measured on addr's live
// multiplexed connection: the negotiation handshake at dial, refreshed by
// every Ping over it (the fleet prober's). It is the cheap
// per-device network signal the adaptive estimator reads and the fleet
// prices a replica by until it has answered enough queries — no extra RPCs
// are spent on it.
func (p *Pool[E]) LastRTT(addr string) (time.Duration, bool) {
	m := p.liveMux(addr)
	if m == nil {
		return 0, false
	}
	rtt := m.rtt.Load()
	if rtt == 0 {
		return 0, false
	}
	return time.Duration(rtt), true
}

// ConnDebug is a point-in-time snapshot of the pool's state toward one
// device, surfaced through /debug/fleet.
type ConnDebug struct {
	// InFlight counts streams currently awaiting a response.
	InFlight int `json:"in_flight,omitempty"`
	// LastContact is when the device was last heard from; zero when no
	// connection is pooled.
	LastContact time.Time `json:"last_contact,omitzero"`
	// RTT is the last measured round trip on the connection (handshake or
	// ping); zero when nothing has been measured.
	RTT time.Duration `json:"rtt_ns,omitempty"`
}

// Debug snapshots the pool state for addr.
func (p *Pool[E]) Debug(addr string) ConnDebug {
	var d ConnDebug
	m := p.liveMux(addr)
	if m == nil {
		return d
	}
	m.mu.Lock()
	d.InFlight = len(m.streams)
	m.mu.Unlock()
	if t := m.lastIn.Load(); t != 0 {
		d.LastContact = time.Unix(0, t)
	}
	d.RTT = time.Duration(m.rtt.Load())
	return d
}

// roundTrip sends one request to addr on the device's persistent
// connection (dialing it on first use), waits for the matching response and
// returns a compute's reply slab, flat, recording the round trip (count, latency, bytes, outcome) into reg and,
// inside a trace, an rpc.client span. It is Call's send and receive halves
// back to back on a recycled Call: the exchange is bounded by both timeout
// and ctx, and cancelling ctx aborts an in-flight dial or wait promptly, the
// returned error then wrapping ctx.Err(). A remote failure returns an
// ErrRemote error.
func (p *Pool[E]) roundTrip(ctx context.Context, addr string, timeout time.Duration, reg *obs.Registry, req request[E]) ([]E, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c := p.call()
	c.mu.Lock()
	c.prepare(ctx, p, addr, timeout, metricsOrDefault(reg), req, c.private)
	c.launch()
	c.mu.Unlock()
	err := c.await(timeout)
	y := c.Y.RowsView(0, c.Y.Rows())
	p.release(c)
	return y, err
}

// call returns a Call for one blocking round trip, recycled from earlier
// ones.
func (p *Pool[E]) call() *Call[E] {
	if c, ok := p.calls.Get().(*Call[E]); ok {
		return c
	}
	return &Call[E]{private: make(chan *Call[E], 1)}
}

// release keeps a finished round trip's Call for the next one. Any Call is
// reusable once finished or withdrawn (see Call), and await always drains
// the private channel before it returns.
func (p *Pool[E]) release(c *Call[E]) {
	c.Y, c.Err = matrix.Dense[E]{}, nil
	p.calls.Put(c)
}

// live returns addr's pooled connection when it is alive, else nil.
func (p *Pool[E]) live(addr string) *muxConn[E] {
	if m := p.liveMux(addr); m != nil && m.alive() {
		return m
	}
	return nil
}

// getMux returns the live multiplexed connection for addr, negotiating a
// new one (single-flight across concurrent callers) when none exists.
// fresh reports that this call dialed the connection itself.
func (p *Pool[E]) getMux(ctx context.Context, addr string, timeout time.Duration, reg *obs.Registry) (m *muxConn[E], fresh bool, err error) {
	e := p.entry(addr)
	for {
		e.mu.Lock()
		if m := e.mux; m != nil {
			if m.alive() {
				e.mu.Unlock()
				return m, false, nil
			}
			// A corpse whose teardown has not yet detached it: never hand
			// it out (a request would burn its retry on a known-dead
			// connection); dial fresh instead.
			e.mux = nil
		}
		if e.connecting == nil {
			ch := make(chan struct{})
			e.connecting = ch
			e.mu.Unlock()
			m, err := p.dialMux(ctx, addr, timeout, reg)
			e.mu.Lock()
			e.connecting = nil
			if err == nil {
				e.mux = m
			}
			close(ch)
			e.mu.Unlock()
			return m, true, err
		}
		ch := e.connecting
		e.mu.Unlock()
		select {
		case <-ch:
			// Re-check: the negotiator installed a connection or failed (in
			// which case we dial ourselves).
		case <-ctx.Done():
			return nil, false, ctxErr(ctx, fmt.Errorf("transport: dial %s: %w", addr, ctx.Err()))
		}
	}
}

// dialMux dials addr and performs the hello handshake. An element type
// with no wire codec fails here, before any dial.
func (p *Pool[E]) dialMux(ctx context.Context, addr string, timeout time.Duration, reg *obs.Registry) (*muxConn[E], error) {
	cod, err := codecFor[E]()
	if err != nil {
		return nil, err
	}
	dialer := net.Dialer{Timeout: timeout}
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, ctxErr(ctx, fmt.Errorf("transport: dial %s: %w", addr, err))
	}
	tuneConn(conn)
	_ = conn.SetDeadline(time.Now().Add(timeout))
	// ctx ending — its deadline included — expires the deadline of a
	// handshake in progress, so that failure reports ctx's error. The
	// watcher must not touch the connection once the handshake is through:
	// a caller that cancels ctx right after a successful dial would
	// otherwise kill the pooled connection.
	var watchMu sync.Mutex
	negotiating := true
	stopWatch := context.AfterFunc(ctx, func() {
		watchMu.Lock()
		defer watchMu.Unlock()
		if negotiating {
			_ = conn.SetDeadline(time.Now())
		}
	})
	defer stopWatch()
	outcome := "error"
	defer func() {
		reg.Counter(obs.MetricTransportNegotiations, "Hello handshakes on freshly dialed connections, by outcome.", obs.L("outcome", outcome)).Inc()
		kind := flight.KindNegotiateError
		if outcome == "v4" {
			kind = flight.KindNegotiateV4
		}
		flight.Default().Publish(kind, addr, 0, 0)
	}()
	h := clientHello(cod.code)
	helloStart := time.Now()
	if _, err := conn.Write(h[:]); err != nil {
		_ = conn.Close()
		return nil, ctxErr(ctx, fmt.Errorf("transport: send to %s: %w", addr, err))
	}
	br := bufio.NewReaderSize(conn, wireWriterBuf)
	if err := readServerHello(br, cod.code); err != nil {
		_ = conn.Close()
		return nil, ctxErr(ctx, fmt.Errorf("transport: negotiate with %s: %w", addr, err))
	}
	watchMu.Lock()
	negotiating = false
	watchMu.Unlock()
	_ = conn.SetDeadline(time.Time{})
	outcome = "v4"
	m := &muxConn[E]{
		pool:    p,
		addr:    addr,
		cod:     cod,
		conn:    conn,
		streams: make(map[uint32]*Call[E]),
		free:    newSlabs[E](cod),
	}
	role := obs.L("role", "client")
	dev := obs.L("device", addr)
	m.conns = reg.Gauge(obs.MetricTransportConnsOpen, connsHelp, role, dev)
	m.inflight = reg.Gauge(obs.MetricTransportStreamsInflight, streamsHelp, role, dev)
	m.w = newWireWriter(conn, timeout, reg.Histogram(obs.MetricTransportFlushFrames, flushHelp, flushBuckets, role))
	m.rpc = newRPCMetrics(reg, clientRPC)
	m.lastIn.Store(time.Now().UnixNano()) // the hello counts as contact
	m.rtt.Store(int64(time.Since(helloStart)))
	m.conns.Add(1)
	go m.readLoop(br)
	return m, nil
}

// muxConn is one live multiplexed connection: many in-flight requests
// share it, matched to responses by stream ID.
type muxConn[E comparable] struct {
	pool *Pool[E]
	addr string
	cod  elemCodec
	conn net.Conn
	w    *wireWriter

	conns    *obs.Gauge
	inflight *obs.Gauge
	rpc      *rpcMetrics // client RPC series in the registry m was dialed with

	// mu guards the stream table. A call leaves it exactly once: delivered
	// by readLoop or teardown, or withdrawn by unregister, so after
	// unregister succeeds no late reply can land in the call.
	mu      sync.Mutex
	streams map[uint32]*Call[E]
	nextID  uint32
	closed  bool

	// free is the connection's reply list (see slabs). The read loop reads
	// a reply into a slab taken from it, or into a fresh one, and a slab
	// enters it only once its owner is done with it, so no reply lands in
	// anything an owner still holds.
	free *slabs[E]

	lastIn atomic.Int64 // unixnano of the last inbound frame
	rtt    atomic.Int64 // last measured round-trip time, nanoseconds
}

func (m *muxConn[E]) alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed
}

func (m *muxConn[E]) readLoop(br *bufio.Reader) {
	for {
		stream, r, err := readResponseFrame[E](br, m.cod, m.free)
		if err != nil {
			m.teardown()
			return
		}
		m.lastIn.Store(time.Now().UnixNano())
		m.mu.Lock()
		c := m.streams[stream]
		if c != nil {
			delete(m.streams, stream)
			c.resp = r
			c.deliver()
		}
		m.mu.Unlock()
		if c == nil {
			// The call was withdrawn: nobody will read this reply.
			r.free.give(r.y)
			continue
		}
		m.inflight.Add(-1)
	}
}

// teardown closes the connection and detaches it from the pool; every call
// still registered on it is delivered lost (errConnBroken). Idempotent.
func (m *muxConn[E]) teardown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for id, c := range m.streams {
		delete(m.streams, id)
		c.lost = true
		c.deliver()
		m.inflight.Add(-1)
	}
	m.mu.Unlock()
	_ = m.conn.Close()
	m.w.close()
	m.conns.Add(-1)
	e := m.pool.entry(m.addr)
	e.mu.Lock()
	if e.mux == m {
		e.mux = nil
	}
	e.mu.Unlock()
}

// send is the send half of a round trip: it registers c on its own stream,
// so readLoop delivers the matching response into c and c onto its done
// channel, and writes the request frame through the connection's batcher,
// which is done with it on return. A connection already closed delivers c lost
// at once; a failed write tears the connection down, which delivers c lost
// too. The caller holds c.mu.
func (m *muxConn[E]) send(c *Call[E]) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		c.lost = true
		c.deliver()
		return
	}
	m.nextID++
	if m.nextID == 0 {
		m.nextID = 1
	}
	id := m.nextID
	m.streams[id] = c
	c.mux, c.stream = m, id
	m.inflight.Add(1)
	m.mu.Unlock()
	sent, err := writeRequestFrame(m.w, m.cod, id, &c.req)
	if err != nil {
		m.teardown()
		return
	}
	c.sent += sent
}

// unregister withdraws c from stream id, reporting whether it was still
// waiting there (false: it has been delivered).
func (m *muxConn[E]) unregister(id uint32, c *Call[E]) bool {
	m.mu.Lock()
	ok := m.streams[id] == c
	if ok {
		delete(m.streams, id)
	}
	m.mu.Unlock()
	if ok {
		m.inflight.Add(-1)
	}
	return ok
}

// startClientSpan opens the rpc.client span when the caller is tracing,
// injecting its traceparent into the request. The returned finish must be
// called exactly once with the outcome; it adopts the device's re-emitted
// spans into this trace. An untraced caller gets a nil finish: there is
// nothing to end, and a no-op closure would cost an allocation per request.
func startClientSpan[E comparable](ctx context.Context, addr, kind string, req *request[E]) (context.Context, func([]trace.SpanData, error)) {
	parent := trace.SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	tracer := parent.Tracer()
	ctx, rsp := tracer.StartSpan(ctx, trace.SpanRPCClient,
		trace.A(trace.AttrKind, kind), trace.A(trace.AttrDevice, addr))
	req.tp = rsp.Traceparent()
	return ctx, func(spans []trace.SpanData, err error) {
		if err != nil {
			rsp.SetError(err)
		}
		rsp.End()
		for _, sd := range spans {
			tracer.Record(sd)
		}
	}
}
