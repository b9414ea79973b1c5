// Package faultproxy is the socket fault injector: a TCP proxy in front of
// one device server that misbehaves on command, so every failure path of
// the real protocol (refused, dead-air, truncated, delayed) can be driven
// from a test or a demo. It imports only the standard library, so any
// layer's tests can use it.
package faultproxy

import (
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Mode selects how a Proxy treats new connections.
type Mode int32

const (
	// None forwards traffic untouched.
	None Mode = iota
	// Drop accepts and immediately closes connections — the client
	// sees a dropped connection (send or receive error).
	Drop
	// Blackhole accepts connections, swallows whatever arrives, and
	// never answers — the client's deadline has to fire.
	Blackhole
	// Delay forwards traffic but holds each chunk of the device's
	// replies — the hello's included — for the configured hold plus a random
	// amount below the configured jitter: a straggler, not a failure.
	Delay
	// Truncate forwards the request upstream but cuts the response off
	// after SetTruncate's byte count — the client sees a mid-message error.
	Truncate
)

// Proxy is a TCP proxy in front of one device server whose failure
// mode can be switched at runtime.
type Proxy struct {
	target string
	ln     net.Listener

	mode     atomic.Int32
	delay    atomic.Int64  // nanoseconds, for Delay
	jitter   atomic.Int64  // nanoseconds, for Delay
	seed     atomic.Uint64 // seeds each held connection's jitter stream
	truncate atomic.Int64  // bytes, for Truncate

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once
}

// New starts a pass-through proxy on an ephemeral loopback port in
// front of target.
func New(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
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
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetMode switches the failure mode. Live proxied connections are severed
// so the new mode takes effect immediately: clients pool persistent
// multiplexed connections, and a fault that only applied to future dials
// would be invisible until the pool happened to reconnect.
func (p *Proxy) SetMode(m Mode) {
	p.mode.Store(int32(m))
	p.mu.Lock()
	for c := range p.conns {
		_ = c.Close()
	}
	p.mu.Unlock()
}

// SetDelay sets how long Delay holds each reply chunk: hold plus a
// random amount below jitter (none when jitter is zero), drawn from a stream
// seeded per connection in the order the proxy accepted them.
func (p *Proxy) SetDelay(hold, jitter time.Duration) {
	p.delay.Store(int64(hold))
	p.jitter.Store(int64(jitter))
}

// SetTruncate sets how many response bytes Truncate lets through.
func (p *Proxy) SetTruncate(n int64) { p.truncate.Store(n) }

// Close stops the proxy and severs every live connection.
func (p *Proxy) Close() error {
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

func (p *Proxy) serve() {
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
func (p *Proxy) track(c net.Conn) bool {
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

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

func (p *Proxy) handle(conn net.Conn) {
	defer conn.Close()
	if !p.track(conn) {
		return
	}
	defer p.untrack(conn)
	mode := Mode(p.mode.Load())
	switch mode {
	case Drop:
		return
	case Blackhole:
		_, _ = io.Copy(io.Discard, conn) // until the peer gives up or Close severs us
		return
	case Truncate:
		p.pipe(conn, mode, p.truncate.Load())
	default:
		p.pipe(conn, mode, -1)
	}
}

// pipe forwards bidirectionally to the target. Under Delay the response
// stream is held chunk by chunk; respLimit >= 0 truncates it after that many
// bytes.
func (p *Proxy) pipe(conn net.Conn, mode Mode, respLimit int64) {
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
		case mode == Delay:
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
func (p *Proxy) copyHeld(down io.Writer, up io.Reader) {
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
