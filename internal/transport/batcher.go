package transport

import (
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"github.com/scec/scec/internal/obs"
)

// wireWriterBuf sizes a connection's read buffer. The outbound buffers grow
// to what the traffic needs; a flush that needed more than wireRetainBuf
// drops its buffer afterwards instead of keeping a bulk store's worth of
// bytes alive.
const (
	wireWriterBuf = 64 << 10
	wireRetainBuf = 4 * wireWriterBuf
)

// flushBuckets are the MetricTransportFlushFrames histogram buckets:
// powers of two covering one frame (idle) through deep group commits.
var flushBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// wireWriter serializes v4 frames onto one connection with group-commit
// flushing: each writer appends its frame to a shared buffer under the
// lock and kicks the flusher goroutine, which swaps the buffer out and
// pushes everything pending in one syscall. A lone writer gets its frame
// flushed immediately; under concurrent streams, frames that arrive while a
// flush syscall is in progress batch into the next one — gofast-style
// batched transmission without a latency-adding timer. The socket write
// runs outside the lock, so a writer never waits behind a flush to a peer
// that stopped reading: its frame is copied into the buffer and
// writeFrame returns, and the caller may reuse the frame's slabs at once.
// The exception is a frame whose element slab is larger than
// wireWriterBuf (a bulk store, a wide batch): copying it would cost more
// than the syscall it could share, so it goes straight to the socket,
// slab uncopied, after any flush in progress — still before writeFrame
// returns.
type wireWriter struct {
	conn    net.Conn
	timeout time.Duration
	hist    *obs.Histogram // flush batch sizes; may be nil

	kick chan struct{}
	wg   sync.WaitGroup

	// wmu is held by whoever writes to the socket: the flusher, or the
	// writer of a large frame.
	wmu sync.Mutex

	mu      sync.Mutex
	buf     []byte // frames awaiting the next flush
	spare   []byte // the flusher's buffer between flushes, reused by the swap
	pending int
	err     error
	closed  bool
}

func newWireWriter(conn net.Conn, timeout time.Duration, hist *obs.Histogram) *wireWriter {
	w := &wireWriter{
		conn:    conn,
		timeout: timeout,
		hist:    hist,
		kick:    make(chan struct{}, 1),
	}
	w.wg.Add(1)
	go w.flushLoop()
	return w
}

// writeFrame writes one whole frame: head appends everything before the
// frame's element slab, slab is the slab's wire image, and tail, when
// non-nil, appends what follows it. A failed write is sticky: the
// connection is unusable once framing may be torn.
func (w *wireWriter) writeFrame(head func([]byte) []byte, slab []byte, tail func([]byte) []byte) error {
	if len(slab) > wireWriterBuf {
		h := head(nil)
		var t []byte
		if tail != nil {
			t = tail(nil)
		}
		return w.writeDirect(net.Buffers{h, slab, t})
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.usable(); err != nil {
		return err
	}
	w.buf = append(head(w.buf), slab...)
	if tail != nil {
		w.buf = tail(w.buf)
	}
	w.pending++
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return nil
}

// usable reports why no frame may be written, if so. The caller holds mu.
func (w *wireWriter) usable() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errConnBroken
	}
	return nil
}

// writeDirect writes one large frame straight to the socket.
func (w *wireWriter) writeDirect(frame net.Buffers) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.mu.Lock()
	err := w.usable()
	w.mu.Unlock()
	if err != nil {
		return err
	}
	_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	if _, err := frame.WriteTo(w.conn); err != nil {
		w.fail(err)
		return err
	}
	if w.hist != nil {
		w.hist.Observe(1)
	}
	return nil
}

// fail records the first write error.
func (w *wireWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

func (w *wireWriter) flushLoop() {
	defer w.wg.Done()
	for range w.kick {
		w.mu.Lock()
		n := w.pending
		if n == 0 || w.err != nil {
			w.mu.Unlock()
			continue
		}
		out := w.buf
		w.buf, w.spare, w.pending = w.spare[:0], nil, 0
		w.mu.Unlock()
		w.wmu.Lock()
		_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
		_, err := w.conn.Write(out)
		w.wmu.Unlock()
		if err != nil {
			w.fail(err)
		}
		if cap(out) > wireRetainBuf {
			out = nil
		}
		w.mu.Lock()
		w.spare = out[:0]
		w.mu.Unlock()
		if w.hist != nil {
			w.hist.Observe(float64(n))
		}
	}
}

// close stops the flusher. It does not close the connection (the caller
// owns it) but marks the writer unusable.
func (w *wireWriter) close() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.kick)
	}
	w.mu.Unlock()
	w.wg.Wait()
}

// tuneConn applies the socket options both roles want on every
// connection: TCP_NODELAY so small frames are not Nagle-delayed (the
// write batcher already coalesces), and keep-alive so half-dead peers are
// eventually detected at the TCP layer too.
func tuneConn(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(30 * time.Second)
	}
}

// peerClosed reports whether err is the signature of the far side closing
// or resetting the connection: ordinary teardown of a pooled connection,
// which the server does not count as a malformed frame.
func peerClosed(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}
