package fleet

import (
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// FaultMode selects how a FaultProxy treats new connections. The harness
// exists for the fault-injection test suite and for scecnet's demo mode; it
// stands between a client and a real device server and misbehaves on
// command, so every failure path (refused, dead-air, truncated, delayed)
// can be exercised against the genuine protocol.
type FaultMode int32

const (
	// FaultNone forwards traffic untouched.
	FaultNone FaultMode = iota
	// FaultDrop accepts and immediately closes connections — the client
	// sees a dropped connection (send or receive error).
	FaultDrop
	// FaultBlackhole accepts connections, swallows whatever arrives, and
	// never answers — the client's deadline has to fire.
	FaultBlackhole
	// FaultDelay forwards traffic but holds each chunk of the device's
	// replies — the hello's included — for the configured hold plus a random
	// amount below the configured jitter: a straggler, not a failure.
	FaultDelay
	// FaultTruncate forwards the request upstream but cuts the response off
	// after TruncateAfter bytes — the client sees a mid-message error.
	FaultTruncate
)

// FaultProxy is a TCP proxy in front of one device server whose failure
// mode can be switched at runtime.
type FaultProxy struct {
	target string
	ln     net.Listener

	mode     atomic.Int32
	delay    atomic.Int64  // nanoseconds, for FaultDelay
	jitter   atomic.Int64  // nanoseconds, for FaultDelay
	seed     atomic.Uint64 // seeds each held connection's jitter stream
	truncate atomic.Int64  // bytes, for FaultTruncate

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
}

// NewFaultProxy starts a pass-through proxy on an ephemeral loopback port in
// front of target.
func NewFaultProxy(target string) (*FaultProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &FaultProxy{
		target: target,
		ln:     ln,
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}
	p.delay.Store(int64(50 * time.Millisecond))
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the proxy's listen address — what the fleet config should
// list instead of the device's real address.
func (p *FaultProxy) Addr() string { return p.ln.Addr().String() }

// SetMode switches the failure mode. Live proxied connections are severed
// so the new mode takes effect immediately: clients pool persistent
// multiplexed connections, and a fault that only applied to future dials
// would be invisible until the pool happened to reconnect.
func (p *FaultProxy) SetMode(m FaultMode) {
	p.mode.Store(int32(m))
	p.mu.Lock()
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
}

// SetDelay sets how long FaultDelay holds each reply chunk: hold plus a
// random amount below jitter (none when jitter is zero), drawn from a stream
// seeded per connection in the order the proxy accepted them.
func (p *FaultProxy) SetDelay(hold, jitter time.Duration) {
	p.delay.Store(int64(hold))
	p.jitter.Store(int64(jitter))
}

// SetTruncate sets how many response bytes FaultTruncate lets through.
func (p *FaultProxy) SetTruncate(n int64) { p.truncate.Store(n) }

// Close stops the proxy and severs every live connection.
func (p *FaultProxy) Close() error {
	var err error
	p.closeOnce.Do(func() {
		close(p.done)
		err = p.ln.Close()
		p.mu.Lock()
		for c := range p.conns {
			_ = c.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
	return err
}

func (p *FaultProxy) serve() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			select {
			case <-p.done:
				return
			default:
				continue
			}
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(conn)
		}()
	}
}

// track registers a connection for teardown on Close; it reports false when
// the proxy is already closing.
func (p *FaultProxy) track(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.done:
		_ = c.Close()
		return false
	default:
		p.conns[c] = struct{}{}
		return true
	}
}

func (p *FaultProxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *FaultProxy) handle(conn net.Conn) {
	defer conn.Close()
	if !p.track(conn) {
		return
	}
	defer p.untrack(conn)
	mode := FaultMode(p.mode.Load())
	switch mode {
	case FaultDrop:
		return
	case FaultBlackhole:
		_, _ = io.Copy(io.Discard, conn) // until the peer gives up or Close severs us
		return
	case FaultTruncate:
		p.pipe(conn, mode, p.truncate.Load())
	default:
		p.pipe(conn, mode, -1)
	}
}

// pipe forwards bidirectionally to the target. Under FaultDelay the response
// stream is held chunk by chunk; respLimit >= 0 truncates it after that many
// bytes.
func (p *FaultProxy) pipe(conn net.Conn, mode FaultMode, respLimit int64) {
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer up.Close()
	if !p.track(up) {
		return
	}
	defer p.untrack(up)
	done := make(chan struct{}, 2)
	go func() {
		_, _ = io.Copy(up, conn) // request path
		done <- struct{}{}
	}()
	go func() {
		switch {
		case mode == FaultDelay:
			p.copyHeld(conn, up)
		case respLimit >= 0:
			_, _ = io.CopyN(conn, up, respLimit)
		default:
			_, _ = io.Copy(conn, up)
		}
		// Sever both sides so the copier in the other direction unblocks.
		_ = conn.Close()
		_ = up.Close()
		done <- struct{}{}
	}()
	<-done
	<-done
}

// copyHeld forwards up's bytes to down, holding each chunk it reads for the
// delay plus its jitter draw, until either side closes or the proxy does.
func (p *FaultProxy) copyHeld(down io.Writer, up io.Reader) {
	rng := rand.New(rand.NewPCG(p.seed.Add(1), 13))
	buf := make([]byte, 32<<10)
	for {
		n, err := up.Read(buf)
		if n > 0 {
			hold := time.Duration(p.delay.Load())
			if j := p.jitter.Load(); j > 0 {
				hold += time.Duration(rng.Int64N(j))
			}
			t := time.NewTimer(hold)
			select {
			case <-t.C:
			case <-p.done:
				t.Stop()
				return
			}
			if _, err := down.Write(buf[:n]); err != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}
