package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs/trace"
)

// Metric help strings shared by both roles.
const (
	flushHelp   = "Frames pushed to the socket per write-batcher flush syscall, by role."
	connsHelp   = "Open transport connections, by role and device."
	streamsHelp = "Streams currently awaiting a response, by role and device."
)

// handleConn serves one accepted connection: it completes the hello
// handshake, then reads request frames. A compute of at most inlineWork
// multiply-adds is served on the read loop itself; every other request gets
// its own goroutine, so slow computes do not block the stream — responses
// multiplex back through the shared write batcher in completion order,
// matched by stream ID. A connection that does
// not open with a valid hello within the timeout (an idle peer, garbage,
// another protocol or wire version) is counted kind="malformed" and closed.
func (s *DeviceServer[E]) handleConn(conn net.Conn) {
	defer conn.Close()
	tuneConn(conn)
	if !s.trackConn(conn) {
		return
	}
	defer s.untrackConn(conn)
	start := time.Now()
	cc := &countingConn{Conn: conn}
	br := bufio.NewReaderSize(cc, wireWriterBuf)
	if err := conn.SetReadDeadline(time.Now().Add(s.timeout)); err != nil {
		return
	}
	code, err := readClientHello(br)
	if err != nil {
		recordServer(s.metrics, "malformed", time.Since(start), cc.read, cc.written, true)
		return
	}
	_ = conn.SetWriteDeadline(time.Now().Add(s.timeout))
	if code != s.cod.code {
		h := serverHello(s.cod.code, helloRejectElem)
		_, _ = conn.Write(h[:])
		recordServer(s.metrics, "malformed", time.Since(start), cc.read, cc.written, true)
		return
	}
	h := serverHello(s.cod.code, helloOK)
	if _, err := conn.Write(h[:]); err != nil {
		return
	}
	s.connsOpen.Add(1)
	defer s.connsOpen.Add(-1)
	w := newWireWriter(conn, s.timeout, s.flushHist)
	defer w.close()
	free := newSlabs[E](s.cod)
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		if err := conn.SetReadDeadline(time.Now().Add(s.timeout)); err != nil {
			return
		}
		select {
		case <-s.done:
			return
		default:
		}
		req, err := readRequestFrame[E](br, s.cod, s.maxElements, free)
		if err != nil {
			var ne net.Error
			if !errors.Is(err, io.EOF) && !(errors.As(err, &ne) && ne.Timeout()) && !peerClosed(err) {
				// Broken framing mid-stream: count it, drop the connection.
				recordServer(s.metrics, "malformed", 0, cc.read, cc.written, true)
			}
			return
		}
		s.streamsOpen.Add(1)
		if s.inline(&req) {
			s.handleWire(w, free, req)
			s.streamsOpen.Add(-1)
			continue
		}
		s.spawn(&handlers, w, free, req)
	}
}

// spawn serves req on a goroutine of its own. It is a function of its own
// so that only a spawned request's copy escapes to the heap: captured in
// handleConn's loop, every request read there would.
func (s *DeviceServer[E]) spawn(handlers *sync.WaitGroup, w *wireWriter, free *slabs[E], req request[E]) {
	handlers.Add(1)
	go func() {
		defer handlers.Done()
		defer s.streamsOpen.Add(-1)
		s.handleWire(w, free, req)
	}()
}

// inlineWork is the most multiply-adds (rows·l·cols) a compute may cost
// and still run on its connection's read loop. Handing a request to a
// goroutine of its own costs a heap allocation and about 3 µs of scheduler
// hand-off whatever its size, which is most of a small compute's time; but
// a request queued behind an inline compute waits for all of it. The
// spawn-vs-inline table in EXPERIMENTS.md ("Inline device computes",
// BenchmarkInlineVsSpawn) sizes it: at 16Ki multiply-adds the hand-off is
// still a sixth or more of the compute and the wait about 18 µs, a quarter
// of a loopback query; at 32Ki the wait is a loopback round trip's worth.
const inlineWork = 16 << 10

// inline reports whether req is a compute or batch compute small enough to
// serve on the read loop. Any other request, or a compute the device has no
// block for, is not (the latter answers at once either way).
func (s *DeviceServer[E]) inline(req *request[E]) bool {
	var l, cols int
	switch {
	case req.op == opCompute:
		l, cols = len(req.x), 1
	case req.op == opComputeBatch && req.m != nil:
		l, cols = req.m.Rows(), req.m.Cols()
	default:
		return false
	}
	s.mu.Lock()
	block := s.block
	s.mu.Unlock()
	return block != nil && block.Rows()*l*cols <= inlineWork
}

// handleWire serves one decoded request frame end to end. The request is
// recorded in the server metrics before its response frame is queued, so a
// client that has its reply can already read the request's counters. Once
// the frame is written (copied into the batcher's buffer, or on the
// socket), the request's operand and reply go back to free for the
// connection's next requests.
func (s *DeviceServer[E]) handleWire(w *wireWriter, free *slabs[E], req request[E]) {
	start := time.Now()
	kind := opToKind(req.op)
	ctx, bag, sp := s.startServerSpan(kind, req.tp)
	var resp response[E]
	switch {
	case req.reqErr != "":
		resp.err = req.reqErr
	case req.op == opPing:
	case req.op == opStore:
		if req.m.Rows() == 0 {
			resp.err = "store: empty coded block"
		} else {
			s.installBlock(req.m)
		}
	case req.op == opCompute:
		resp.y, resp.err = s.mulVec(ctx, bag, req.x, free)
	case req.op == opComputeBatch:
		resp.m, resp.err = s.mulMat(ctx, bag, req.m, free)
	}
	errored := resp.err != ""
	if sp != nil {
		if errored {
			sp.SetError(errors.New(resp.err))
		}
		sp.End()
		bag.add(sp)
		resp.spans = bag.spans
	}
	frame := newReplyFrame(s.cod, req.op, &resp)
	recordServer(s.metrics, kind, time.Since(start), req.size, frame.size(), errored)
	_ = writeReply(w, req.stream, &frame, &resp)
	free.release(&req, &resp)
}

// slabs are one connection's free lists of element slabs. On a device, a
// compute's operand (x, or a batch's X) is read into a slab from in and its
// reply (y, or a batch's Y) is computed into one from out; release hands
// both back once the response frame is written, so a steady stream of
// requests decodes and answers without allocating. A store's slab never
// enters a list: it becomes the device's block. On a client connection, in
// is the reply list: a compute reply is read into a slab from it, and the
// slab comes back when the call's owner releases it (Call.Release) or, for
// a withdrawn call, straight from the read loop; out stays empty. The lists
// are buffered channels, so taking or returning a slab allocates nothing.
type slabs[E comparable] struct {
	in, out chan []E
	// retain is the largest slab kept, in elements: a wide batch's operand
	// is not worth holding for the connection's lifetime.
	retain int
}

// freeSlabs is each list's capacity: how many of one connection's requests
// in flight at once keep their slabs for the requests after them. A slab
// returned to a full list is dropped.
const freeSlabs = 16

func newSlabs[E comparable](cod elemCodec) *slabs[E] {
	return &slabs[E]{
		in:     make(chan []E, freeSlabs),
		out:    make(chan []E, freeSlabs),
		retain: wireWriterBuf / cod.size,
	}
}

// read returns a slab of n elements to read a frame's elements into: a
// device's compute operand or a client's compute reply. A nil s (a decoder
// with no connection behind it) allocates one.
func (s *slabs[E]) read(n int) []E {
	if s == nil {
		return make([]E, n)
	}
	return reuse(s.in, n)
}

// reply returns a slab of n elements for a compute's result.
func (s *slabs[E]) reply(n int) []E { return reuse(s.out, n) }

// release hands back a served request's operand and reply.
func (s *slabs[E]) release(req *request[E], resp *response[E]) {
	switch req.op {
	case opCompute:
		s.keep(s.in, req.x)
		s.keep(s.out, resp.y)
	case opComputeBatch:
		if req.m != nil {
			s.keep(s.in, req.m.RowsView(0, req.m.Rows()))
		}
		if resp.m != nil {
			s.keep(s.out, resp.m.RowsView(0, resp.m.Rows()))
		}
	}
}

// give hands back a client reply slab holding y or, for a batch, m (at most
// one is set); a nil s keeps nothing.
func (s *slabs[E]) give(y []E, m *matrix.Dense[E]) {
	if s == nil {
		return
	}
	if m != nil {
		y = m.RowsView(0, m.Rows())
	}
	s.keep(s.in, y)
}

// keep returns b to list unless it is empty or too large to hold, or the
// list is full.
func (s *slabs[E]) keep(list chan []E, b []E) {
	if cap(b) == 0 || cap(b) > s.retain {
		return
	}
	select {
	case list <- b:
	default:
	}
}

// reuse takes a free slab with room for n elements from list, or allocates
// one; a free slab too small for n is dropped.
func reuse[E comparable](list chan []E, n int) []E {
	select {
	case b := <-list:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]E, n)
}

// replyFrame is the layout of one response frame before it is queued: the
// wire image of its element slab, its encoded spans trailer and its payload
// length, so its size is known before write queues it.
type replyFrame struct {
	op          byte
	slab, spans []byte
	payload     int
}

// newReplyFrame lays out the response frame for resp to a request of op:
//
//	u32 length | u32 streamID | u8 op|0x80 | u8 status |
//	  (status!=0: u32 msgLen | msg)
//	  (status==0, compute: u32 n | elems)
//	  (status==0, compute-batch: u32 rows | u32 cols | elems)
//	| u32 spansLen | gob([]trace.SpanData)
func newReplyFrame[E comparable](cod elemCodec, op byte, resp *response[E]) replyFrame {
	f := replyFrame{op: op, spans: encodeSpans(resp.spans)}
	switch {
	case resp.err != "":
	case op == opCompute:
		f.slab = elemWireBytes(resp.y, cod.size)
	case op == opComputeBatch:
		f.slab = elemWireBytes(resp.m.RowsView(0, resp.m.Rows()), cod.size)
	}
	f.payload = 1 + len(f.slab) + 4 + len(f.spans) // status, elements, spans trailer
	switch {
	case resp.err != "":
		f.payload += 4 + len(resp.err)
	case op == opCompute:
		f.payload += 4
	case op == opComputeBatch:
		f.payload += 8
	}
	return f
}

// size is the frame's full wire size.
func (f *replyFrame) size() int64 { return int64(frameOverhead + f.payload) }

// writeReply queues f, the frame newReplyFrame laid out for resp, on w
// under stream.
func writeReply[E comparable](w *wireWriter, stream uint32, f *replyFrame, resp *response[E]) error {
	op, payload, spans := f.op, f.payload, f.spans
	return w.writeFrame(func(b []byte) []byte {
		status := byte(0)
		if resp.err != "" {
			status = 1
		}
		b = appendFrameHeader(b, uint32(5+payload), stream, op|opResponseBit, status)
		switch {
		case resp.err != "":
			b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.err)))
			b = append(b, resp.err...)
		case op == opCompute:
			b = binary.LittleEndian.AppendUint32(b, uint32(len(resp.y)))
		case op == opComputeBatch:
			b = binary.LittleEndian.AppendUint32(b, uint32(resp.m.Rows()))
			b = binary.LittleEndian.AppendUint32(b, uint32(resp.m.Cols()))
		}
		return b
	}, f.slab, func(b []byte) []byte {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(spans)))
		return append(b, spans...)
	})
}

// encodeSpans gob-encodes a span batch for the response trailer; spans are
// cold-path metadata, so gob's flexibility beats a hand-rolled layout here.
func encodeSpans(spans []trace.SpanData) []byte {
	if len(spans) == 0 {
		return nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(spans); err != nil {
		return nil
	}
	return buf.Bytes()
}

func decodeSpans(b []byte) []trace.SpanData {
	if len(b) == 0 {
		return nil
	}
	var spans []trace.SpanData
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&spans); err != nil {
		return nil
	}
	return spans
}

// writeRequestFrame appends one request frame (layout in wire.go: the
// traceparent prefix, then the op-specific dimensions and the raw
// little-endian element slab) and returns its full wire size.
func writeRequestFrame[E comparable](w *wireWriter, cod elemCodec, stream uint32, req *request[E]) (int64, error) {
	var size int64
	slab := requestSlab(cod, req)
	err := w.writeFrame(func(b []byte) []byte {
		b, size = appendRequestHead(b, cod, stream, req, len(slab))
		return b
	}, slab, nil)
	if err != nil {
		return 0, err
	}
	return size, nil
}

// appendRequestFrame appends exactly one request frame to b and returns the
// extended buffer and the frame's on-wire size: the bench harness's pure
// encode cost against an in-memory buffer.
func appendRequestFrame[E comparable](b []byte, cod elemCodec, stream uint32, req *request[E]) ([]byte, int64) {
	slab := requestSlab(cod, req)
	b, size := appendRequestHead(b, cod, stream, req, len(slab))
	return append(b, slab...), size
}

// requestSlab is the wire image of a request's element slab: x for a
// compute, the matrix for a store or batch compute, nothing for a ping.
func requestSlab[E comparable](cod elemCodec, req *request[E]) []byte {
	switch req.op {
	case opCompute:
		return elemWireBytes(req.x, cod.size)
	case opStore, opComputeBatch:
		return elemWireBytes(req.m.RowsView(0, req.m.Rows()), cod.size)
	}
	return nil
}

// appendRequestHead appends everything of a request frame that precedes its
// slab of slabLen bytes — header, traceparent, dimensions — and returns the
// whole frame's on-wire size.
func appendRequestHead[E comparable](b []byte, cod elemCodec, stream uint32, req *request[E], slabLen int) ([]byte, int64) {
	op, tp := req.op, req.tp
	if len(tp) > 255 {
		tp = "" // cannot happen with W3C traceparents; degrade to untraced
	}
	payload := 1 + len(tp) + slabLen
	switch op {
	case opCompute:
		payload += 4
	case opStore, opComputeBatch:
		payload += 8
	}
	b = appendFrameHeader(b, uint32(5+payload), stream, op, byte(len(tp)))
	b = append(b, tp...)
	switch op {
	case opCompute:
		b = binary.LittleEndian.AppendUint32(b, uint32(len(req.x)))
	case opStore, opComputeBatch:
		b = binary.LittleEndian.AppendUint32(b, uint32(req.m.Rows()))
		b = binary.LittleEndian.AppendUint32(b, uint32(req.m.Cols()))
	}
	return b, int64(frameOverhead + payload)
}

// readResponseFrame decodes one response frame, returning its stream ID
// for mux dispatch. The response comes back by value, the shape the stream
// channels carry it in. A compute reply of at most free.retain elements is
// read into a slab from free, recorded in the response's free field; a
// larger one grows in bounded chunks (readElemsChunked), so a forged header
// cannot provoke a large allocation.
func readResponseFrame[E comparable](br *bufio.Reader, cod elemCodec, free *slabs[E]) (uint32, response[E], error) {
	var wr response[E]
	// elems reads a reply's total elements, which the frame length has
	// already bounded.
	elems := func(total int) ([]E, error) {
		if free == nil || total > free.retain {
			return readElemsChunked[E](br, total, cod.size)
		}
		dst := free.read(total)
		if err := readElems(br, dst, cod.size); err != nil {
			return nil, err
		}
		wr.free = free
		return dst, nil
	}
	var hdr [frameOverhead]byte
	if err := readFull(br, hdr[:]); err != nil {
		return 0, wr, err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length < 6 || length > maxFrameLen {
		return 0, wr, fmt.Errorf("transport: bad response frame length %d", length)
	}
	stream := binary.LittleEndian.Uint32(hdr[4:8])
	wr.op, wr.size = hdr[8], int64(4+length)
	if wr.op&opResponseBit == 0 {
		return 0, wr, fmt.Errorf("transport: request op %#x in response frame", wr.op)
	}
	body := int(length) - 5
	var u [8]byte
	if err := readFull(br, u[:1]); err != nil {
		return 0, wr, err
	}
	status := u[0]
	body--
	readU32 := func() (int, error) {
		if body < 4 {
			return 0, errors.New("transport: truncated response payload")
		}
		if err := readFull(br, u[:4]); err != nil {
			return 0, err
		}
		body -= 4
		return int(binary.LittleEndian.Uint32(u[:4])), nil
	}
	if status != 0 {
		n, err := readU32()
		if err != nil {
			return 0, wr, err
		}
		if n > body {
			return 0, wr, errors.New("transport: error message overruns frame")
		}
		msg := make([]byte, n)
		if _, err := io.ReadFull(br, msg); err != nil {
			return 0, wr, err
		}
		body -= n
		wr.err = string(msg)
		if wr.err == "" {
			wr.err = "unspecified remote error"
		}
	} else {
		switch wr.op &^ opResponseBit {
		case opPing, opStore:
		case opCompute:
			n, err := readU32()
			if err != nil {
				return 0, wr, err
			}
			// The spans trailer still follows (≥ 4 bytes), bounding the
			// element count — and with it the allocation — by the frame.
			if body < 4 || n*cod.size > body-4 {
				return 0, wr, fmt.Errorf("transport: %d response elements do not fit frame", n)
			}
			if wr.y, err = elems(n); err != nil {
				return 0, wr, err
			}
			body -= n * cod.size
		case opComputeBatch:
			rows, err := readU32()
			if err != nil {
				return 0, wr, err
			}
			cols, err := readU32()
			if err != nil {
				return 0, wr, err
			}
			// Division, not multiplication: rows·cols·size can overflow
			// uint64 on forged dimensions and sneak past a product check.
			total := uint64(rows) * uint64(cols)
			if body < 4 || rows < 0 || cols < 0 || total > uint64(body-4)/uint64(cod.size) {
				return 0, wr, fmt.Errorf("transport: %dx%d response does not fit frame", rows, cols)
			}
			data, err := elems(int(total))
			if err != nil {
				return 0, wr, err
			}
			body -= int(total) * cod.size
			wr.m = matrix.FromSlice(rows, cols, data)
		default:
			return 0, wr, fmt.Errorf("transport: unknown response op %#x", wr.op)
		}
	}
	n, err := readU32()
	if err != nil {
		return 0, wr, err
	}
	if n != body {
		return 0, wr, fmt.Errorf("transport: spans trailer of %d bytes in %d remaining", n, body)
	}
	if n > 0 {
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return 0, wr, err
		}
		wr.spans = decodeSpans(b)
	}
	return stream, wr, nil
}
