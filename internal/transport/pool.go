package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/obs/trace"
)

// DefaultHeartbeatEvery is the idle interval after which a pooled
// connection sends a piggybacked heartbeat ping. It is well under the
// device's default request timeout, so idle pooled connections stay alive,
// and under the fleet's probe interval, so the prober can trust LastContact
// instead of dialing its own pings.
const DefaultHeartbeatEvery = time.Second

// Pool owns the persistent client-side connections to a set of devices:
// one multiplexed connection per address, shared by every in-flight
// request. Clients share the per-element-type package pool by default;
// tests that need connection isolation set Client.Pool.
type Pool[E comparable] struct {
	heartbeat time.Duration

	mu      sync.Mutex
	entries map[string]*poolEntry[E]
}

// NewPool returns an empty pool with default tuning.
func NewPool[E comparable]() *Pool[E] {
	return &Pool[E]{
		heartbeat: DefaultHeartbeatEvery,
		entries:   make(map[string]*poolEntry[E]),
	}
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
// connection (a response or heartbeat frame). The fleet prober treats a
// recent LastContact as a successful health check and skips its ping.
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
// every timed idle heartbeat. It is the estimator's cheap per-device
// network-health signal — no extra RPCs are spent on it.
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
	// timed heartbeat); zero when nothing has been measured.
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
// connection (dialing it on first use) and waits for the matching response,
// recording the round trip (count, latency, bytes, outcome) into reg and,
// inside a trace, an rpc.client span. The exchange is bounded by both
// timeout and ctx: cancelling ctx aborts an in-flight dial or wait promptly
// (the fleet runtime relies on this to cancel the losers of a hedged race
// instead of leaking them until the deadline), and the returned error then
// wraps ctx.Err(). The answer lands in *resp, which the caller owns: a
// response is a dozen words, and returning it by value would copy it into a
// frame at every level of a call chain that already runs deep on the fleet's
// short-lived per-block goroutines. A remote failure fills *resp (for its
// spans) and returns an ErrRemote error.
func (p *Pool[E]) roundTrip(ctx context.Context, addr string, timeout time.Duration, reg *obs.Registry, req *request[E], resp *response[E]) (err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	reg = metricsOrDefault(reg)
	kind := opToKind(req.op)
	var finish func([]trace.SpanData, error)
	if ctx, finish = startClientSpan(ctx, addr, kind, req); finish != nil {
		defer func() { finish(resp.spans, err) }()
	}
	start := time.Now()
	var sent, recv int64
	defer func() {
		recordClient(reg, kind, time.Since(start), sent, recv, err)
	}()
	for attempt := 0; ; attempt++ {
		m, fresh, err := p.getMux(ctx, addr, timeout, reg)
		if err != nil {
			return err
		}
		var s, rc int64
		s, rc, err = m.do(ctx, timeout, req, resp)
		sent, recv = sent+s, recv+rc
		if err != nil && errors.Is(err, errConnBroken) && !fresh && attempt == 0 && ctx.Err() == nil {
			// The reused connection died under this request (device
			// restart, idle cut): all protocol requests are
			// idempotent, so retry once on a fresh connection.
			continue
		}
		return err
	}
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
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = conn.SetDeadline(deadline)
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.SetDeadline(time.Now())
		case <-watchDone:
		}
	}()
	outcome := "error"
	defer func() {
		reg.Counter(obs.MetricTransportNegotiations, "Hello handshakes on freshly dialed connections, by outcome.", obs.L("outcome", outcome)).Inc()
		kind := flight.KindNegotiateError
		if outcome == "v3" {
			kind = flight.KindNegotiateV3
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
	_ = conn.SetDeadline(time.Time{})
	outcome = "v3"
	m := &muxConn[E]{
		pool:    p,
		addr:    addr,
		cod:     cod,
		conn:    conn,
		timeout: timeout,
		streams: make(map[uint32]chan response[E]),
		done:    make(chan struct{}),
	}
	role := obs.L("role", "client")
	dev := obs.L("device", addr)
	m.conns = reg.Gauge(obs.MetricTransportConnsOpen, connsHelp, role, dev)
	m.inflight = reg.Gauge(obs.MetricTransportStreamsInflight, streamsHelp, role, dev)
	m.hbCounterOK = reg.Counter(obs.MetricTransportHeartbeats, heartbeatHelp, obs.L("outcome", "ok"))
	m.hbCounterFail = reg.Counter(obs.MetricTransportHeartbeats, heartbeatHelp, obs.L("outcome", "failed"))
	m.w = newWireWriter(conn, timeout, reg.Histogram(obs.MetricTransportFlushFrames, flushHelp, flushBuckets, role))
	m.lastIn.Store(time.Now().UnixNano()) // the hello counts as contact
	m.rtt.Store(int64(time.Since(helloStart)))
	m.conns.Add(1)
	m.wg.Add(2)
	go m.readLoop(br)
	go m.heartbeatLoop(p.heartbeat)
	return m, nil
}

const heartbeatHelp = "Piggybacked heartbeat pings on idle multiplexed connections, by outcome."

// muxConn is one live multiplexed connection: many in-flight requests
// share it, matched to responses by stream ID.
type muxConn[E comparable] struct {
	pool    *Pool[E]
	addr    string
	cod     elemCodec
	conn    net.Conn
	w       *wireWriter
	timeout time.Duration

	conns         *obs.Gauge
	inflight      *obs.Gauge
	hbCounterOK   *obs.Counter
	hbCounterFail *obs.Counter

	mu      sync.Mutex
	streams map[uint32]chan response[E]
	nextID  uint32
	closed  bool

	// chans recycles the one-slot stream channels. A channel goes back only
	// after its own waiter received from it: readLoop had already removed it
	// from streams before its single send, so nothing can write to it again.
	// A channel abandoned on cancel, timeout or teardown is dropped instead:
	// readLoop may have looked it up just before the waiter unregistered and
	// still deliver the late response into it, and reused, that channel
	// would hand another stream's request this one's answer.
	chans sync.Pool

	lastIn  atomic.Int64 // unixnano of the last inbound frame
	lastOut atomic.Int64 // unixnano of the last outbound frame
	rtt     atomic.Int64 // last measured round-trip time, nanoseconds
	done    chan struct{}
	wg      sync.WaitGroup
}

func (m *muxConn[E]) alive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed
}

func (m *muxConn[E]) readLoop(br *bufio.Reader) {
	defer m.wg.Done()
	for {
		stream, r, err := readResponseFrame[E](br, m.cod)
		if err != nil {
			m.teardown()
			return
		}
		m.lastIn.Store(time.Now().UnixNano())
		m.mu.Lock()
		ch := m.streams[stream]
		delete(m.streams, stream)
		m.mu.Unlock()
		if ch != nil {
			ch <- r // one slot, and this is its one send: never blocks
		}
	}
}

// teardown closes the connection and detaches it from the pool; waiters
// observe done and fail with errConnBroken. Idempotent.
func (m *muxConn[E]) teardown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.done)
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

// do issues one request on its own stream and waits for the matching
// response, received into *resp, bounded by ctx and timeout.
func (m *muxConn[E]) do(ctx context.Context, timeout time.Duration, req *request[E], resp *response[E]) (sent, recv int64, err error) {
	ch, _ := m.chans.Get().(chan response[E])
	if ch == nil {
		ch = make(chan response[E], 1)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.chans.Put(ch) // never registered, so never written to
		return 0, 0, fmt.Errorf("%w: send to %s", errConnBroken, m.addr)
	}
	m.nextID++
	if m.nextID == 0 {
		m.nextID = 1
	}
	id := m.nextID
	m.streams[id] = ch
	m.mu.Unlock()
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	unregister := func() {
		m.mu.Lock()
		delete(m.streams, id)
		m.mu.Unlock()
	}
	sent, werr := writeRequestFrame(m.w, m.cod, id, req)
	if werr != nil {
		unregister()
		m.teardown()
		return 0, 0, fmt.Errorf("%w: send to %s: %v", errConnBroken, m.addr, werr)
	}
	m.lastOut.Store(time.Now().UnixNano())
	timer := acquireTimer(timeout)
	defer releaseTimer(timer)
	select {
	case *resp = <-ch:
		m.chans.Put(ch)
	case <-m.done:
		// Prefer a response that raced the teardown.
		select {
		case *resp = <-ch:
		default:
			return sent, 0, fmt.Errorf("%w: receive from %s", errConnBroken, m.addr)
		}
	case <-ctx.Done():
		unregister()
		return sent, 0, ctxErr(ctx, fmt.Errorf("transport: receive from %s: %w", m.addr, ctx.Err()))
	case <-timer.C:
		unregister()
		return sent, 0, fmt.Errorf("transport: receive from %s: %w", m.addr, os.ErrDeadlineExceeded)
	}
	return sent, resp.size, m.verdict(req.op, resp)
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

// verdict turns a decoded response into the request's error: the device's
// own failure as ErrRemote, or a protocol error when the device answered a
// different op than it was asked (the callers index resp.y / resp.m by the
// op they sent). The response travels with either error so a failed traced
// request still stitches its server side into the trace.
func (m *muxConn[E]) verdict(op byte, r *response[E]) error {
	if r.err != "" {
		return fmt.Errorf("%w: %s: %s", ErrRemote, m.addr, r.err)
	}
	if r.op != op|opResponseBit {
		return fmt.Errorf("transport: %s answered op %#x to a %s request", m.addr, r.op, opToKind(op))
	}
	return nil
}

// heartbeatLoop pings the device whenever the connection has been idle
// for a full interval, keeping the server's idle deadline from cutting
// the pooled connection and feeding LastContact for the fleet's breaker
// prober. Each heartbeat is timed end to end and refreshes the
// connection's round-trip estimate (LastRTT), giving cost estimators a
// free per-device network signal. A failed heartbeat tears the connection
// down: the next request redials rather than discovering the corpse
// itself.
func (m *muxConn[E]) heartbeatLoop(every time.Duration) {
	defer m.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-t.C:
			last := m.lastIn.Load()
			if out := m.lastOut.Load(); out > last {
				last = out
			}
			if time.Since(time.Unix(0, last)) < every {
				continue
			}
			req := request[E]{op: opPing}
			sentAt := time.Now()
			_, _, err := m.do(context.Background(), m.timeout, &req, &response[E]{})
			if err != nil {
				m.hbCounterFail.Inc()
				m.teardown()
				return
			}
			m.rtt.Store(int64(time.Since(sentAt)))
			m.hbCounterOK.Inc()
		}
	}
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
