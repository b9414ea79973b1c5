// Package transport runs the SCEC protocol over real TCP connections. It
// implements the three roles of the paper's system model (§II-A):
//
//   - the cloud pre-processes A (package coding) and pushes each device's
//     coded block B_j·T to it (Store),
//   - each edge device is a DeviceServer that stores its block and answers
//     compute requests with B_j·T·x,
//   - the user's network half is a Client that sends x to the devices and
//     returns their intermediate results B_j·T·x undecoded; decoding Ax is
//     the caller's, through the deployment's coding.Code (the fleet runtime
//     races replicas with Client.Go, collecting every reply of a query on
//     one channel, and the engine above it decodes).
//
// The package speaks one wire protocol (v3, see wire.go) and is generic
// over the field element type: one persistent connection per device
// multiplexes many in-flight requests as length-prefixed binary frames with
// stream IDs; field-element slabs travel as raw little-endian bytes (zero
// copy on little-endian hosts), small writes batch through a group-commit
// flusher, and idle connections carry piggybacked heartbeats that the fleet
// runtime reads instead of dialing separate pings. A connection opens with
// a 12-byte versioned hello in each direction; a peer that does not answer
// it is a dial error like any other.
package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
)

// DefaultTimeout bounds every network round trip.
const DefaultTimeout = 10 * time.Second

// ErrRemote wraps an error string reported by the peer.
var ErrRemote = errors.New("transport: remote error")

// request is the protocol's one request envelope: what a client hands the
// frame encoder and what the device's frame decoder yields.
type request[E comparable] struct {
	// op selects the operation (opPing, opStore, opCompute, opComputeBatch).
	op byte
	// tp carries the caller's span context in the W3C traceparent shape
	// when the request is part of a trace; empty otherwise.
	tp string
	// x is the input vector of a compute request.
	x []E
	// m is the coded block of a store request or the input matrix X of a
	// batch compute; its backing slab goes on the wire uncopied.
	m *matrix.Dense[E]

	// The remaining fields are filled by the device-side decoder only.
	stream uint32
	// reqErr carries a request-level validation failure detected during
	// decode (an element count over the device cap, or a Prime element
	// that is not a canonical residue): the payload was consumed, the
	// connection stays healthy, and the server answers this error string
	// instead of dispatching.
	reqErr string
	// size is the full on-wire frame size in bytes, for byte accounting.
	size int64
}

// response is the device's answer: y for a compute, m for a batch compute,
// neither for ping and store.
type response[E comparable] struct {
	// err is non-empty when the request failed remotely.
	err string
	y   []E
	m   *matrix.Dense[E]
	// spans carries the device's finished server-side spans for a traced
	// request, re-emitted into the caller's trace so one user query
	// assembles into a single cross-process waterfall.
	spans []trace.SpanData
	// op and size are set by the client-side decoder: the frame's op byte
	// (request op | opResponseBit) and its full on-wire size.
	op   byte
	size int64
	// free is the client connection's reply list y or m was read into from,
	// nil when the reply's slab is not the list's to take back.
	free *slabs[E]
}

// DefaultMaxElements bounds the number of field elements a device accepts
// in a single store or batch-compute request (64 Mi elements ≈ 512 MB of
// uint64), so a misbehaving peer cannot exhaust device memory.
const DefaultMaxElements = 1 << 26

// DeviceServer is one edge device: it stores a coded block pushed by the
// cloud and multiplies it by input vectors on request.
type DeviceServer[E comparable] struct {
	f           field.Field[E]
	timeout     time.Duration
	maxElements int
	cod         elemCodec
	metrics     *obs.Registry
	tracer      *trace.Tracer

	ln        net.Listener
	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once

	// Telemetry for the persistent-connection machinery.
	flushHist   *obs.Histogram
	connsOpen   *obs.Gauge
	streamsOpen *obs.Gauge

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	mu    sync.Mutex
	block *matrix.Dense[E]
	stats Stats
}

// Stats counts the requests a device served; the fleet operator reads them
// for capacity accounting (the live counterpart of the Eq. (1) cost terms).
type Stats struct {
	// Stores counts coded-block installations.
	Stores int
	// Computes counts vector compute requests served.
	Computes int
	// BatchComputes counts batch (matrix) compute requests served.
	BatchComputes int
	// ValuesReturned totals the intermediate values sent back to users.
	ValuesReturned int
}

// Options tunes a DeviceServer; the zero value selects every default.
type Options struct {
	// Timeout bounds each request exchange; zero means DefaultTimeout.
	Timeout time.Duration
	// MaxElements caps the field elements accepted per store or
	// batch-compute request; zero means DefaultMaxElements.
	MaxElements int
	// Metrics receives the server's RPC and compute-stage telemetry; nil
	// means obs.Default().
	Metrics *obs.Registry
	// Tracer, when non-nil, records a server-side span per traced request
	// (plus a child compute span) and re-emits them to the client through
	// the response frame. Nil disables device-side tracing; traced clients
	// still work, they just see no device spans from this server.
	Tracer *trace.Tracer
}

// NewDeviceServer starts an edge device listening on addr (use "127.0.0.1:0"
// for an ephemeral port; Addr reports the bound address) with
// DefaultMaxElements as its request-size cap.
func NewDeviceServer[E comparable](f field.Field[E], addr string) (*DeviceServer[E], error) {
	return NewDeviceServerOptions(f, addr, Options{})
}

// NewDeviceServerOptions is NewDeviceServer with explicit Options.
func NewDeviceServerOptions[E comparable](f field.Field[E], addr string, opts Options) (*DeviceServer[E], error) {
	if opts.Timeout == 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.Timeout < 0 {
		return nil, fmt.Errorf("transport: negative timeout %v", opts.Timeout)
	}
	if opts.MaxElements == 0 {
		opts.MaxElements = DefaultMaxElements
	}
	if opts.MaxElements < 1 {
		return nil, fmt.Errorf("transport: max elements %d, need >= 1", opts.MaxElements)
	}
	cod, err := codecFor[E]()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	s := &DeviceServer[E]{
		f:           f,
		timeout:     opts.Timeout,
		maxElements: opts.MaxElements,
		cod:         cod,
		metrics:     metricsOrDefault(opts.Metrics),
		tracer:      opts.Tracer,
		ln:          ln,
		done:        make(chan struct{}),
		conns:       make(map[net.Conn]struct{}),
	}
	role := obs.L("role", "server")
	dev := obs.L("device", s.Addr())
	s.flushHist = s.metrics.Histogram(obs.MetricTransportFlushFrames, flushHelp, flushBuckets, role)
	s.connsOpen = s.metrics.Gauge(obs.MetricTransportConnsOpen, connsHelp, role, dev)
	s.streamsOpen = s.metrics.Gauge(obs.MetricTransportStreamsInflight, streamsHelp, role, dev)
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the device's bound address.
func (s *DeviceServer[E]) Addr() string { return s.ln.Addr().String() }

// StoredRows reports how many coded rows the device currently holds.
func (s *DeviceServer[E]) StoredRows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.block == nil {
		return 0
	}
	return s.block.Rows()
}

// Stats returns a snapshot of the request counters.
func (s *DeviceServer[E]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close stops accepting connections, unblocks the readers of every
// persistent connection (in-flight requests still get their responses
// flushed), and waits for the server's goroutines. It is idempotent;
// repeated calls return nil.
func (s *DeviceServer[E]) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		err = s.ln.Close()
		s.connMu.Lock()
		for c := range s.conns {
			// Expire reads rather than closing: the per-connection reader
			// observes the pop, sees done closed, and exits its loop after
			// its in-flight handlers finish writing.
			_ = c.SetReadDeadline(time.Now())
		}
		s.connMu.Unlock()
		s.wg.Wait()
	})
	return err
}

func (s *DeviceServer[E]) serve() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				// Transient accept error: keep serving.
				continue
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// trackConn registers a live connection for teardown on Close.
func (s *DeviceServer[E]) trackConn(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.done:
		return false
	default:
		s.conns[conn] = struct{}{}
		return true
	}
}

func (s *DeviceServer[E]) untrackConn(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// spanBag collects the finished server-side spans of one request for
// re-emission through the response frame. A request is handled by one
// goroutine, so no locking is needed; a nil bag (untraced request) absorbs
// adds silently.
type spanBag struct {
	spans []trace.SpanData
}

func (b *spanBag) add(sp *trace.Span) {
	if b == nil {
		return
	}
	if sd, ok := sp.Data(); ok {
		b.spans = append(b.spans, sd)
	}
}

// startServerSpan opens the device-side span for a traced request: the
// frame's traceparent parents it, so the client's and device's spans share
// one trace ID across the process boundary. Untraced requests (no tracer
// configured, no traceparent, or a malformed one) get a nil span and bag.
func (s *DeviceServer[E]) startServerSpan(kind, traceparent string) (context.Context, *spanBag, *trace.Span) {
	if s.tracer == nil || traceparent == "" {
		return context.Background(), nil, nil
	}
	parent, ok := trace.ParseTraceparent(traceparent)
	if !ok {
		return context.Background(), nil, nil
	}
	ctx, sp := s.tracer.StartRemote(context.Background(), parent,
		trace.SpanRPCServer, trace.A(trace.AttrKind, kind), trace.A(trace.AttrDevice, s.Addr()))
	return ctx, &spanBag{}, sp
}

// startComputeSpan opens the kernel-execution child span for a traced
// request; untraced requests (nil bag) record nothing.
func (s *DeviceServer[E]) startComputeSpan(ctx context.Context, bag *spanBag, kind string) *trace.Span {
	if bag == nil {
		return nil
	}
	_, csp := s.tracer.StartSpan(ctx, trace.SpanDeviceCompute, trace.A(trace.AttrKind, kind))
	return csp
}

// installBlock stores a validated coded block.
func (s *DeviceServer[E]) installBlock(block *matrix.Dense[E]) {
	s.mu.Lock()
	s.block = block
	s.stats.Stores++
	s.mu.Unlock()
}

// mulVec validates and executes one vector compute against the stored
// block, computing into a reply slab from free, and returns the result or
// the remote-error string.
func (s *DeviceServer[E]) mulVec(ctx context.Context, bag *spanBag, x []E, free *slabs[E]) ([]E, string) {
	s.mu.Lock()
	block := s.block
	s.mu.Unlock()
	if block == nil {
		return nil, "compute: no coded block stored"
	}
	if len(x) != block.Cols() {
		return nil, fmt.Sprintf("compute: x has %d entries, coded rows have %d columns", len(x), block.Cols())
	}
	y := free.reply(block.Rows())
	csp := s.startComputeSpan(ctx, bag, "vec")
	sp := obs.StartStage(s.metrics, obs.StageCompute)
	matrix.MulVecInto(s.f, block, x, y)
	sp.End()
	csp.End()
	bag.add(csp)
	s.mu.Lock()
	s.stats.Computes++
	s.stats.ValuesReturned += len(y)
	s.mu.Unlock()
	return y, ""
}

// mulMat is mulVec's batch counterpart; x carries the input rows, and the
// result is computed into a reply slab from free.
func (s *DeviceServer[E]) mulMat(ctx context.Context, bag *spanBag, x *matrix.Dense[E], free *slabs[E]) (*matrix.Dense[E], string) {
	s.mu.Lock()
	block := s.block
	s.mu.Unlock()
	if block == nil {
		return nil, "compute-batch: no coded block stored"
	}
	if x.Rows() != block.Cols() {
		return nil, fmt.Sprintf("compute-batch: X has %d rows, coded rows have %d columns", x.Rows(), block.Cols())
	}
	if x.Cols() == 0 {
		return nil, "compute-batch: X has no columns"
	}
	y := matrix.FromSlice(block.Rows(), x.Cols(), free.reply(block.Rows()*x.Cols()))
	csp := s.startComputeSpan(ctx, bag, "mat")
	sp := obs.StartStage(s.metrics, obs.StageCompute)
	matrix.MulInto(s.f, block, x, y)
	sp.End()
	csp.End()
	bag.add(csp)
	s.mu.Lock()
	s.stats.BatchComputes++
	s.stats.ValuesReturned += y.Rows() * y.Cols()
	s.mu.Unlock()
	return y, ""
}

// ctxErr attributes an I/O error provoked by context cancellation back to
// the context, so callers can distinguish a cancelled attempt (errors.Is
// context.Canceled/DeadlineExceeded) from a genuine device failure.
func ctxErr(ctx context.Context, err error) error {
	if ce := ctx.Err(); ce != nil {
		return fmt.Errorf("%w (%v)", ce, err)
	}
	return err
}

// Cloud is the pre-processing role: it distributes an encoding to a fleet.
type Cloud[E comparable] struct {
	// Timeout bounds each push; zero means DefaultTimeout.
	Timeout time.Duration
	// Metrics receives RPC and store-stage telemetry; nil means
	// obs.Default().
	Metrics *obs.Registry
	// Pool holds the persistent device connections; nil means the shared
	// per-element-type pool.
	Pool *Pool[E]
}

func (c Cloud[E]) pool() *Pool[E] {
	if c.Pool != nil {
		return c.Pool
	}
	return SharedPool[E]()
}

// Distribute pushes coded block j of enc to addrs[j] for every device,
// concurrently. It requires exactly one address per block and records the
// push as the pipeline's store stage. Failed pushes are collected and
// reported together, each tagged with its device index.
func (c Cloud[E]) Distribute(ctx context.Context, addrs []string, enc *coding.Encoding[E]) error {
	if len(addrs) != len(enc.Blocks) {
		return fmt.Errorf("transport: %d addresses for %d coded blocks", len(addrs), len(enc.Blocks))
	}
	timeout := c.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	reg := metricsOrDefault(c.Metrics)
	defer obs.StartStage(reg, obs.StageStore).End()
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for j, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.store(ctx, addr, enc.Blocks[j], timeout, reg); err != nil {
				errs[j] = fmt.Errorf("transport: distribute to device %d: %w", j, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Store pushes one coded block to a single device. The fleet runtime uses it
// for replicated provisioning and for re-pushing a block to a warm standby;
// unlike Distribute it records no pipeline stage, leaving that to the caller.
func (c Cloud[E]) Store(ctx context.Context, addr string, block *matrix.Dense[E]) error {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = DefaultTimeout
	}
	return c.store(ctx, addr, block, timeout, metricsOrDefault(c.Metrics))
}

func (c Cloud[E]) store(ctx context.Context, addr string, block *matrix.Dense[E], timeout time.Duration, reg *obs.Registry) error {
	_, _, err := c.pool().roundTrip(ctx, addr, timeout, reg, request[E]{op: opStore, m: block})
	return err
}

// Client is the user role's network half: it sends inputs to devices and
// returns their raw intermediate results. It never decodes.
type Client[E comparable] struct {
	// F is the arithmetic field shared with the fleet.
	F field.Field[E]
	// Code is read by nothing: the client returns B_j·T·x undecoded and the
	// caller decodes. It remains only because the benchmark module's ladder
	// still sets it in a composite literal; leave it unset.
	Code coding.Code[E]
	// Timeout bounds each device round trip; zero means DefaultTimeout.
	Timeout time.Duration
	// Metrics receives RPC and gather/decode-stage telemetry; nil means
	// obs.Default().
	Metrics *obs.Registry
	// Pool holds the persistent device connections; nil means the shared
	// per-element-type pool.
	Pool *Pool[E]
}

func (c Client[E]) pool() *Pool[E] {
	if c.Pool != nil {
		return c.Pool
	}
	return SharedPool[E]()
}

// LastContact reports when addr was last heard from on this client's
// pooled multiplexed connection; see Pool.LastContact.
func (c Client[E]) LastContact(addr string) (time.Time, bool) {
	return c.pool().LastContact(addr)
}

// LastRTT reports the most recent round-trip time measured on this
// client's pooled multiplexed connection to addr (negotiation handshake,
// refreshed by timed idle heartbeats); see Pool.LastRTT.
func (c Client[E]) LastRTT(addr string) (time.Duration, bool) {
	return c.pool().LastRTT(addr)
}

// ConnDebug snapshots the pooled connection state toward addr.
func (c Client[E]) ConnDebug(addr string) ConnDebug {
	return c.pool().Debug(addr)
}

// timeout resolves the client's per-round-trip bound.
func (c Client[E]) timeout() time.Duration {
	if c.Timeout == 0 {
		return DefaultTimeout
	}
	return c.Timeout
}

// Gather sends x to every device at once and concatenates the intermediate
// results in device order, returning the raw vector B·T·x without decoding.
// rowsOn[j] gives the expected result length of device j; the caller
// decodes the result through its coding.Code. It is one fan-out collected on
// the calling goroutine: every request is sent with Go and the replies
// arrive on one channel. The first failure, ctx ending or the timeout
// withdraws the requests still in flight and is returned.
func (c Client[E]) Gather(ctx context.Context, addrs []string, rowsOn []int, x []E) ([]E, error) {
	if len(addrs) != len(rowsOn) {
		return nil, fmt.Errorf("transport: %d addresses for %d row counts", len(addrs), len(rowsOn))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	reg := metricsOrDefault(c.Metrics)
	defer obs.StartStage(reg, obs.StageGather).End()
	offs := make([]int, len(addrs)+1)
	for j, n := range rowsOn {
		offs[j+1] = offs[j] + n
	}
	y := make([]E, offs[len(addrs)])
	calls := make([]Call[E], len(addrs))
	done := make(chan *Call[E], len(addrs))
	for j, addr := range addrs {
		calls[j].Tag = j
		c.Go(ctx, addr, x, &calls[j], done)
	}
	timer := time.NewTimer(c.timeout())
	defer timer.Stop()
	var err error
	finished := make([]bool, len(addrs))
	pending := len(addrs)
	ctxDone, expired := ctx.Done(), timer.C
	withdraw := func(cause error) {
		if err == nil {
			err = cause
		}
		ctxDone, expired = nil, nil
		for j := range calls {
			if !finished[j] && calls[j].Cancel(cause) {
				finished[j] = true
				pending--
			}
		}
	}
	for pending > 0 {
		select {
		case call := <-done:
			if !call.Receive() {
				continue
			}
			j := call.Tag
			finished[j] = true
			pending--
			part := y[offs[j]:offs[j+1]]
			switch {
			case err != nil:
			case call.Err != nil:
				withdraw(call.Err)
			case len(call.Y) != len(part):
				withdraw(fmt.Errorf("transport: device %d returned %d values, want %d", j, len(call.Y), len(part)))
			default:
				copy(part, call.Y)
			}
			call.Release()
		case <-ctxDone:
			withdraw(ctxErr(ctx, fmt.Errorf("transport: gather: %w", ctx.Err())))
		case <-expired:
			withdraw(fmt.Errorf("transport: gather: %w", os.ErrDeadlineExceeded))
		}
	}
	if err != nil {
		return nil, err
	}
	return y, nil
}

// Go sends x to addr as one compute request and returns at once: call
// arrives on done when the device answers, the connection breaks or the
// dial fails, and the caller then finishes it with call.Receive (see Call).
// done must have room for every call sent on it and not yet received. The
// request frame is written — copied into the connection's buffer, or to the
// socket when large — before Go returns or, when the connection is still
// being dialed, before the dial delivers or Cancel withdraws the call, so x
// may be reused once the call is finished or withdrawn. A trace
// span in ctx parents the request's rpc.client span; ctx ending aborts a
// dial in flight.
func (c Client[E]) Go(ctx context.Context, addr string, x []E, call *Call[E], done chan *Call[E]) {
	c.send(ctx, addr, request[E]{op: opCompute, x: x}, call, done)
}

// GoBatch is Go for a batch compute of the l×n input matrix X.
func (c Client[E]) GoBatch(ctx context.Context, addr string, x *matrix.Dense[E], call *Call[E], done chan *Call[E]) {
	c.send(ctx, addr, request[E]{op: opComputeBatch, m: x}, call, done)
}

func (c Client[E]) send(ctx context.Context, addr string, req request[E], call *Call[E], done chan *Call[E]) {
	if ctx == nil {
		ctx = context.Background()
	}
	call.mu.Lock()
	call.prepare(ctx, c.pool(), addr, c.timeout(), metricsOrDefault(c.Metrics), req, done)
	call.launch()
	call.mu.Unlock()
}

// Compute sends x to one device and returns its intermediate result B_j·T·x
// without validation against a scheme: Go and its receive back to back.
// Scheme-order callers use Gather instead.
func (c Client[E]) Compute(ctx context.Context, addr string, x []E) ([]E, error) {
	y, _, err := c.pool().roundTrip(ctx, addr, c.timeout(), c.Metrics, request[E]{op: opCompute, x: x})
	return y, err
}

// ComputeBatch sends the l×n input matrix X to one device and returns its
// intermediate result B_j·T·X — the batch counterpart of Compute. X is
// copied onto the wire before the call returns.
func (c Client[E]) ComputeBatch(ctx context.Context, addr string, x *matrix.Dense[E]) (*matrix.Dense[E], error) {
	_, m, err := c.pool().roundTrip(ctx, addr, c.timeout(), c.Metrics, request[E]{op: opComputeBatch, m: x})
	return m, err
}

// Ping checks a device is reachable using the client's timeout and metrics
// registry.
func (c Client[E]) Ping(ctx context.Context, addr string) error {
	_, _, err := c.pool().roundTrip(ctx, addr, c.timeout(), c.Metrics, request[E]{op: opPing})
	return err
}
