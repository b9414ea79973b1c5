package transport

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"github.com/scec/scec/internal/obs"
)

// wireWriterBuf sizes the outbound frame buffer; writes larger than the
// buffer pass straight through to the socket, so large slabs are not
// double-buffered.
const wireWriterBuf = 64 << 10

// flushBuckets are the MetricTransportFlushFrames histogram buckets:
// powers of two covering one frame (idle) through deep group commits.
var flushBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// wireWriter serializes v3 frames onto one connection with group-commit
// flushing: each writer appends its frame to a shared buffer under the
// lock and kicks the flusher goroutine, which pushes everything pending in
// one syscall. A lone writer gets its frame flushed immediately; under
// concurrent streams, frames that arrive while a flush syscall is in
// progress batch into the next one — gofast-style batched transmission
// without a latency-adding timer.
type wireWriter struct {
	conn    net.Conn
	timeout time.Duration
	hist    *obs.Histogram // flush batch sizes; may be nil

	kick chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	bw      *bufio.Writer
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
		bw:      bufio.NewWriterSize(conn, wireWriterBuf),
	}
	w.wg.Add(1)
	go w.flushLoop()
	return w
}

// writeFrame appends one frame via fn (which must write exactly one whole
// frame to the buffered writer) and schedules a flush. Any write error is
// sticky: the connection is unusable once framing may be torn.
func (w *wireWriter) writeFrame(fn func(*bufio.Writer) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errConnBroken
	}
	if err := fn(w.bw); err != nil {
		w.err = err
		return err
	}
	w.pending++
	select {
	case w.kick <- struct{}{}:
	default:
	}
	return nil
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
		w.pending = 0
		_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
		if err := w.bw.Flush(); err != nil {
			w.err = err
		}
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
