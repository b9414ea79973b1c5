package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"unsafe"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

// The v3 wire format.
//
// Connections open with a 12-byte hello in each direction:
//
//	client: magic[8] | version | elemCode | reserved[2]
//	server: magic[8] | version | elemCode | status | reserved[1]
//
// where magic is {0x00, 'S', 'C', 'E', 'C', 'v', '3', '\n'}. The hello is
// the whole negotiation: a server closes on a wrong magic or version byte,
// answers an element-type mismatch with an explicit rejection status, and
// a client treats anything but an accepting hello as a failed dial.
//
// After the handshake both directions carry frames:
//
//	u32 length | u32 streamID | u8 op | payload
//
// (all integers little-endian; length counts streamID+op+payload, i.e.
// 5+len(payload)). Responses echo the request's streamID with op|0x80,
// so many requests can be in flight on one connection at once.
var v3Magic = [8]byte{0x00, 'S', 'C', 'E', 'C', 'v', '3', '\n'}

const (
	wireVersion = 3
	helloLen    = 12

	helloOK         = 0 // server hello status: accepted
	helloRejectElem = 1 // server hello status: element-type mismatch
)

// Frame ops. A response frame carries the request op with opResponseBit set.
const (
	opPing         byte = 1
	opStore        byte = 2
	opCompute      byte = 3
	opComputeBatch byte = 4
	opResponseBit  byte = 0x80
)

// frameOverhead is the per-frame byte count besides the payload: the u32
// length prefix plus the u32 streamID and u8 op it counts.
const frameOverhead = 4 + 5

// appendFrameHeader appends a frame's fixed prefix — u32 length | u32
// streamID | u8 op — and the op's first payload byte (a request's
// traceparent length, a response's status). Frames are appended straight
// into the connection's outbound buffer, so no field needs a scratch array
// of its own.
func appendFrameHeader(b []byte, length, stream uint32, op, first byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, length)
	b = binary.LittleEndian.AppendUint32(b, stream)
	return append(b, op, first)
}

// maxFrameLen bounds the declared frame length so a garbage length prefix
// cannot drive pathological reads; real payload allocation is separately
// gated on the receiver's element cap.
const maxFrameLen = 1<<31 - 1

// errConnBroken reports that a multiplexed connection died with the
// request in flight; the pool retries such requests once on a fresh
// connection when they were issued on a reused one.
var errConnBroken = errors.New("transport: connection broken")

// opToKind names an op for metric and span labels; anything outside the
// protocol collapses to "unknown", so a misbehaving peer cannot explode
// label cardinality.
func opToKind(op byte) string {
	switch op &^ opResponseBit {
	case opPing:
		return "ping"
	case opStore:
		return "store"
	case opCompute:
		return "compute"
	case opComputeBatch:
		return "compute-batch"
	}
	return "unknown"
}

// elemCodec describes how one field-element type goes on the wire.
type elemCodec struct {
	code byte // hello elemCode
	size int  // bytes per element
}

// codecFor resolves the wire codec for E. The element types of the exact
// fields (Prime → uint64, GF256 → byte) are supported; anything else —
// float64 included, since Real deployments never leave the host — is an
// error, reported by the server constructor and by a client's first request
// before any dial.
func codecFor[E comparable]() (elemCodec, error) {
	var z E
	switch any(z).(type) {
	case uint64:
		return elemCodec{code: 1, size: 8}, nil
	case byte:
		return elemCodec{code: 2, size: 1}, nil
	}
	return elemCodec{}, fmt.Errorf("transport: element type %T has no wire codec", z)
}

// hostLittleEndian reports whether the running machine stores integers
// little-endian, in which case element slabs alias directly to their wire
// bytes (zero copy). Big-endian hosts take a per-element conversion path.
var hostLittleEndian = func() bool {
	x := uint16(0x0102)
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// elemWireBytes returns the little-endian wire image of s: an aliasing
// view on little-endian hosts, a converted copy on big-endian ones.
// The caller must not let the returned slice outlive its use of s.
func elemWireBytes[E comparable](s []E, size int) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*size)
	}
	buf := make([]byte, len(s)*size)
	switch v := any(s).(type) {
	case []uint64:
		for i, e := range v {
			binary.LittleEndian.PutUint64(buf[i*8:], e)
		}
	case []byte:
		copy(buf, v)
	}
	return buf
}

// readElems fills dst with len(dst) elements read from r as little-endian
// wire bytes, reading directly into the destination slab on little-endian
// hosts.
func readElems[E comparable](r io.Reader, dst []E, size int) error {
	if len(dst) == 0 {
		return nil
	}
	if hostLittleEndian {
		_, err := io.ReadFull(r, unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), len(dst)*size))
		return err
	}
	buf := make([]byte, len(dst)*size)
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	switch v := any(dst).(type) {
	case []uint64:
		for i := range v {
			v[i] = binary.LittleEndian.Uint64(buf[i*8:])
		}
	case []byte:
		copy(v, buf)
	}
	return nil
}

// readChunk is how many elements readElemsChunked reads per step.
const readChunk = 1 << 16

// readElemsChunked reads total elements, growing the destination in
// bounded chunks so a forged frame header cannot provoke a huge upfront
// allocation: memory grows only as fast as bytes actually arrive. Each step
// extends dst by at most one chunk (append's growth policy sets the
// capacity) and reads straight into the new tail, so every element is
// copied once and a result that fits one chunk costs one allocation.
func readElemsChunked[E comparable](r io.Reader, total int, size int) ([]E, error) {
	var dst []E
	for len(dst) < total {
		lo := len(dst)
		n := min(total-lo, readChunk)
		dst = slices.Grow(dst, n)[:lo+n]
		if err := readElems(r, dst[lo:], size); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// nonResidue returns the index of the first element of a Prime slab that is
// not a canonical residue (≥ field.Modulus), or −1. Every byte is a GF(2^8)
// element, so a byte slab always passes.
func nonResidue[E comparable](s []E) int {
	if v, ok := any(s).([]uint64); ok {
		for i, e := range v {
			if e >= field.Modulus {
				return i
			}
		}
	}
	return -1
}

// readFull is io.ReadFull for the small fixed-size fields of a frame. It
// copies out of br's buffer with Peek and Discard, so dst — a local array
// at every call site — stays on the stack instead of escaping through the
// io.Reader interface. len(dst) must not exceed br's buffer size.
func readFull(br *bufio.Reader, dst []byte) error {
	b, err := br.Peek(len(dst))
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	copy(dst, b)
	_, _ = br.Discard(len(dst))
	return nil
}

// Hello encoding.

func clientHello(code byte) [helloLen]byte {
	var h [helloLen]byte
	copy(h[:], v3Magic[:])
	h[8] = wireVersion
	h[9] = code
	return h
}

func serverHello(code, status byte) [helloLen]byte {
	var h [helloLen]byte
	copy(h[:], v3Magic[:])
	h[8] = wireVersion
	h[9] = code
	h[10] = status
	return h
}

// readClientHello consumes and validates a client hello. A malformed hello
// is a protocol error; the caller closes the connection.
func readClientHello(r io.Reader) (code byte, err error) {
	var h [helloLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, fmt.Errorf("transport: read v3 hello: %w", err)
	}
	if [8]byte(h[:8]) != v3Magic {
		return 0, errors.New("transport: bad v3 hello magic")
	}
	if h[8] != wireVersion {
		return 0, fmt.Errorf("transport: unsupported wire version %d", h[8])
	}
	return h[9], nil
}

// readServerHello consumes and validates the server's hello.
func readServerHello(r io.Reader, wantCode byte) error {
	var h [helloLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return fmt.Errorf("transport: read v3 server hello: %w", err)
	}
	if [8]byte(h[:8]) != v3Magic || h[8] != wireVersion {
		return errors.New("transport: peer does not speak v3")
	}
	if h[10] != helloOK {
		return fmt.Errorf("transport: device rejected v3 handshake (status %d, element code %d, ours %d)", h[10], h[9], wantCode)
	}
	if h[9] != wantCode {
		return fmt.Errorf("transport: device speaks element code %d, client speaks %d", h[9], wantCode)
	}
	return nil
}

// readRequestFrame decodes one request frame from br. It validates every
// declared dimension against the frame length before allocating, so a
// forged frame can never allocate more than maxElements field elements;
// dimension counts over maxElements drain the (bounded) payload and
// report a request-level reqErr rather than poisoning the connection, and
// so does a Prime element that is not a canonical residue.
// io.EOF before the first header byte surfaces unchanged so callers can
// distinguish clean connection teardown. The request comes back by value:
// the server hands it to its handler goroutine as a copy, not as a
// per-frame heap object. A compute's operand is read into a slab from free
// (nil allocates one); a store's block always gets a fresh slab, since it
// outlives the request.
func readRequestFrame[E comparable](br *bufio.Reader, cod elemCodec, maxElements int, free *slabs[E]) (request[E], error) {
	var req request[E]
	var hdr [frameOverhead]byte
	if err := readFull(br, hdr[:1]); err != nil {
		return req, err // io.EOF here = clean close between frames
	}
	if err := readFull(br, hdr[1:]); err != nil {
		return req, fmt.Errorf("transport: short frame header: %w", err)
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length < 5 || length > maxFrameLen {
		return req, fmt.Errorf("transport: bad frame length %d", length)
	}
	req.stream = binary.LittleEndian.Uint32(hdr[4:8])
	req.op = hdr[8]
	req.size = int64(4 + length)
	body := int(length) - 5 // payload bytes still on the wire
	if req.op&opResponseBit != 0 {
		return req, fmt.Errorf("transport: response op %#x in request frame", req.op)
	}

	// Traceparent prefix: u8 len | bytes.
	var tl [1]byte
	if body < 1 {
		return req, errors.New("transport: truncated request payload")
	}
	if err := readFull(br, tl[:]); err != nil {
		return req, fmt.Errorf("transport: read traceparent length: %w", err)
	}
	body--
	if int(tl[0]) > body {
		return req, errors.New("transport: traceparent overruns frame")
	}
	if tl[0] > 0 {
		tp := make([]byte, tl[0])
		if _, err := io.ReadFull(br, tp); err != nil {
			return req, fmt.Errorf("transport: read traceparent: %w", err)
		}
		body -= len(tp)
		req.tp = string(tp)
	}

	// readDims reads n ≤ 2 u32 dimensions.
	readDims := func(n int) ([2]uint32, error) {
		var dims [2]uint32
		var b [8]byte
		if body < 4*n {
			return dims, errors.New("transport: truncated request dimensions")
		}
		if err := readFull(br, b[:4*n]); err != nil {
			return dims, fmt.Errorf("transport: read dimensions: %w", err)
		}
		body -= 4 * n
		for i := range n {
			dims[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
		return dims, nil
	}
	// drain discards the remaining payload (bounded by the declared frame
	// length, which the peer must actually transmit) so an over-cap
	// request keeps the connection framed.
	drain := func() error {
		_, err := io.CopyN(io.Discard, br, int64(body))
		body = 0
		return err
	}
	// slab validates total elements against the remaining payload and the
	// device cap, then reads them zero-copy into a slab: a fresh one for a
	// store's block, one from free for a compute's operand. A slab holding
	// a non-residue is refused too, since the kernels' lazy reduction
	// assumes canonical inputs and would answer a wrong y. what names the
	// operand ("compute: x") for the refusal message, which is only built
	// on a refusal.
	slab := func(total uint64, what string) ([]E, error) {
		if total != uint64(body)/uint64(cod.size) || total*uint64(cod.size) != uint64(body) {
			return nil, fmt.Errorf("transport: %d elements do not match %d payload bytes", total, body)
		}
		if total > uint64(maxElements) {
			req.reqErr = fmt.Sprintf("%s of %d elements exceeds the device cap of %d", what, total, maxElements)
			return nil, drain()
		}
		var dst []E
		if req.op == opStore {
			dst = make([]E, total)
		} else {
			dst = free.read(int(total))
		}
		if err := readElems(br, dst, cod.size); err != nil {
			return nil, fmt.Errorf("transport: read elements: %w", err)
		}
		body = 0
		if i := nonResidue(dst); i >= 0 {
			req.reqErr = fmt.Sprintf("%s element %d is %v, not a residue mod %d", what, i, dst[i], field.Modulus)
			return nil, nil
		}
		return dst, nil
	}

	switch req.op {
	case opPing:
		if body != 0 {
			return req, fmt.Errorf("transport: ping frame carries %d payload bytes", body)
		}
	case opCompute:
		dims, err := readDims(1)
		if err != nil {
			return req, err
		}
		x, err := slab(uint64(dims[0]), "compute: x")
		if err != nil {
			return req, err
		}
		req.x = x
	case opStore, opComputeBatch:
		dims, err := readDims(2)
		if err != nil {
			return req, err
		}
		rows, cols := uint64(dims[0]), uint64(dims[1])
		what := "store: block"
		if req.op == opComputeBatch {
			what = "compute-batch: X"
		}
		data, err := slab(rows*cols, what)
		if err != nil {
			return req, err
		}
		if req.reqErr == "" {
			req.m = matrix.FromSlice(int(rows), int(cols), data)
		}
	default:
		return req, fmt.Errorf("transport: unknown request op %#x", req.op)
	}
	if body != 0 {
		return req, fmt.Errorf("transport: %d trailing payload bytes", body)
	}
	return req, nil
}
