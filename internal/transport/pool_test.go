package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scec/scec/internal/faultproxy"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
)

// TestMuxManyStreamsOneConnection fires 64 concurrent computes through one
// pool and asserts they all multiplex onto a single server-side connection
// — the tentpole property of the v4 transport.
func TestMuxManyStreamsOneConnection(t *testing.T) {
	f := field.Prime{}
	reg := obs.New()
	srv, err := NewDeviceServerOptions[uint64](f, "127.0.0.1:0", Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The store rides the same pool, so it shares the one connection too.
	pool := NewPool[uint64]()
	if err := (Cloud[uint64]{Timeout: 5 * time.Second, Pool: pool}).Store(t.Context(), srv.Addr(), matrix.FromSlice(1, 2, []uint64{2, 3})); err != nil {
		t.Fatal(err)
	}

	client := Client[uint64]{F: f, Timeout: 5 * time.Second, Pool: pool}
	const parallel = 64
	var wg sync.WaitGroup
	errs := make([]error, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y, err := client.Compute(t.Context(), srv.Addr(), []uint64{5, 7})
			if err == nil && (len(y) != 1 || y[0] != 31) {
				err = errors.New("wrong result")
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
	if got := srv.connsOpen.Value(); got != 1 {
		t.Fatalf("server connections = %v, want 1 (all streams share one)", got)
	}
	if d := client.ConnDebug(srv.Addr()); d.LastContact.IsZero() {
		t.Fatalf("pool debug = %+v, want a live connection", d)
	}
	if got := srv.Stats().Computes; got != parallel {
		t.Fatalf("server computes = %d, want %d", got, parallel)
	}
}

// TestPoolReconnectsAfterServerRestart kills the device mid-lifetime and
// restarts it on the same address: the pooled connection dies, and the
// next request must transparently redial instead of failing.
func TestPoolReconnectsAfterServerRestart(t *testing.T) {
	f := field.Prime{}
	srv, err := NewDeviceServer[uint64](f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	client := Client[uint64]{F: f, Timeout: 2 * time.Second, Pool: NewPool[uint64]()}
	if err := client.Ping(t.Context(), addr); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewDeviceServer[uint64](f, addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	// The pooled connection is now a corpse; the request must retry on a
	// fresh dial without surfacing the broken-connection error.
	if err := client.Ping(t.Context(), addr); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
}

// TestPooledContextCancelPrompt cancels a request whose server completed
// the handshake but never answers frames: the multiplexed wait must abort
// promptly with context.Canceled, well before the RPC timeout.
func TestPooledContextCancelPrompt(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				// Speak just enough v4 to pass negotiation, then go silent.
				buf := make([]byte, helloLen)
				if _, err := io.ReadFull(conn, buf); err != nil {
					return
				}
				h := serverHello(1, helloOK)
				_, _ = conn.Write(h[:])
				select {} // never answer; the test process exits anyway
			}()
		}
	}()

	client := Client[uint64]{F: field.Prime{}, Timeout: 30 * time.Second, Pool: NewPool[uint64]()}
	ctx, cancel := context.WithCancel(t.Context())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- client.Ping(ctx, ln.Addr().String())
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v, want prompt abort", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pooled request ignored context cancellation")
	}
}

// TestCancelledStreamNeverFeedsNextRequest: over one pooled connection to a
// slow device, requests cancelled mid-flight interleave with fresh requests,
// each with its own x. A cancelled request's response still arrives, late;
// the stream channel it was meant for must never be handed to a later
// request, so every answer that comes back — fresh or from a request that
// beat its own cancel — is exactly B·x for the x that was sent. The
// connection's reply list is in play throughout: late replies go back to it
// from the read loop, fresh replies go back once checked (Call.Release), and
// a reply Client.Compute returned is never reused, so it stays exact while
// later replies land in recycled slabs.
func TestCancelledStreamNeverFeedsNextRequest(t *testing.T) {
	f := field.Prime{}
	srv, err := NewDeviceServer[uint64](f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	const rows, cols = 3, 4
	rng := testRNG()
	block := matrix.Random[uint64](f, rng, rows, cols)
	// The proxy holds each chunk of the device's replies for a random delay
	// below maxDelay, so replies land after the contexts of the requests
	// they answer have ended.
	const maxDelay = 300 * time.Microsecond
	proxy, err := faultproxy.New(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })
	proxy.SetDelay(0, maxDelay)
	proxy.SetMode(faultproxy.Delay)
	addr := proxy.Addr()
	// The store dials the pooled connection every request below shares.
	pool := NewPool[uint64]()
	if err := (Cloud[uint64]{Timeout: 5 * time.Second, Pool: pool}).Store(t.Context(), addr, block); err != nil {
		t.Fatal(err)
	}
	client := Client[uint64]{F: f, Timeout: 10 * time.Second, Pool: pool}

	const workers, rounds = 8, 150
	var wg sync.WaitGroup
	var cancelled atomic.Int64
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 11))
			exact := func(x, y []uint64) error {
				if want := matrix.MulVec[uint64](f, block, x); !slices.Equal(y, want) {
					return fmt.Errorf("worker %d: answer %v for x=%v, want %v", w, y, x, want)
				}
				return nil
			}
			var (
				call        Call[uint64]
				done        = make(chan *Call[uint64], 1)
				kept, keptX []uint64
			)
			for range rounds {
				x := matrix.RandomVec[uint64](f, rng, cols)
				ctx, cancel := context.WithTimeout(t.Context(), time.Duration(rng.Int64N(int64(2*maxDelay))))
				y, err := client.Compute(ctx, addr, x)
				cancel()
				switch {
				case err == nil:
					if err := exact(x, y); err != nil {
						errs <- err
						return
					}
					kept, keptX = y, x
				case errors.Is(err, context.DeadlineExceeded):
					cancelled.Add(1)
				default:
					errs <- fmt.Errorf("worker %d: doomed request: %v", w, err)
					return
				}
				x = matrix.RandomVec[uint64](f, rng, cols)
				client.Go(t.Context(), addr, vec(x), &call, done)
				for !(<-done).Receive() {
				}
				err = call.Err
				if err == nil {
					err = exact(x, flat(&call.Y))
				}
				call.Release()
				if err == nil && kept != nil {
					if err = exact(keptX, kept); err != nil {
						err = fmt.Errorf("a reply its owner kept was overwritten: %w", err)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if cancelled.Load() == 0 {
		t.Fatal("no request was cancelled in flight; the test exercised nothing")
	}
	if n := srv.connsOpen.Value(); n != 1 {
		t.Fatalf("device saw %v connections, want the one pooled connection", n)
	}
}

// TestSharedPoolIsPerElementType: the default pools are singletons per
// element type, so every Client[uint64] shares device connections.
func TestSharedPoolIsPerElementType(t *testing.T) {
	if SharedPool[uint64]() != SharedPool[uint64]() {
		t.Fatal("SharedPool[uint64] is not a singleton")
	}
	if any(SharedPool[uint64]()) == any(SharedPool[float64]()) {
		t.Fatal("pools for distinct element types must be distinct")
	}
}

// TestPoolAccessorsDoNotMintEntries: the fleet prober and /debug/fleet ask
// LastContact / LastRTT / Debug about standbys and quarantined devices that
// were never dialed; asking must not grow the pool, and a dialed address
// must still report.
func TestPoolAccessorsDoNotMintEntries(t *testing.T) {
	pool := NewPool[uint64]()
	for i := 0; i < 100; i++ {
		addr := fmt.Sprintf("127.0.0.1:%d", 40000+i)
		if _, ok := pool.LastContact(addr); ok {
			t.Fatalf("LastContact(%s) reported contact with a never-dialed address", addr)
		}
		if _, ok := pool.LastRTT(addr); ok {
			t.Fatalf("LastRTT(%s) reported an RTT for a never-dialed address", addr)
		}
		if d := pool.Debug(addr); d != (ConnDebug{}) {
			t.Fatalf("Debug(%s) = %+v, want zero", addr, d)
		}
	}
	if n := len(pool.entries); n != 0 {
		t.Fatalf("read-only accessors minted %d pool entries, want 0", n)
	}

	srv, err := NewDeviceServer[uint64](field.Prime{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := Client[uint64]{F: field.Prime{}, Timeout: 2 * time.Second, Pool: pool}
	if err := client.Ping(t.Context(), srv.Addr()); err != nil {
		t.Fatal(err)
	}
	if _, ok := pool.LastContact(srv.Addr()); !ok {
		t.Fatal("no LastContact for a dialed address")
	}
	if rtt, ok := pool.LastRTT(srv.Addr()); !ok || rtt <= 0 {
		t.Fatalf("LastRTT for a dialed address = %v, %v", rtt, ok)
	}
	if d := pool.Debug(srv.Addr()); d.LastContact.IsZero() || d.RTT <= 0 {
		t.Fatalf("Debug for a dialed address = %+v", d)
	}
	if n := len(pool.entries); n != 1 {
		t.Fatalf("pool holds %d entries after one dial, want 1", n)
	}
}

// noCodec is a comparable element type the wire format cannot carry.
type noCodec struct{ v int32 }

// TestNoWireCodecFailsFast: an element type with no wire codec is refused
// by the server constructor and by every client and cloud call, with the
// same message and before any dial (the target address refuses connections,
// so a dial would surface a different error).
func TestNoWireCodecFailsFast(t *testing.T) {
	const addr = "127.0.0.1:1"
	const want = "transport: element type transport.noCodec has no wire codec"
	client := Client[noCodec]{Timeout: time.Second, Pool: NewPool[noCodec]()}
	cloud := Cloud[noCodec]{Timeout: time.Second, Pool: NewPool[noCodec]()}
	x := matrix.FromSlice(1, 1, []noCodec{{1}})
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"server", func() error {
			srv, err := NewDeviceServerOptions[noCodec](nil, "127.0.0.1:0", Options{})
			if err == nil {
				_ = srv.Close()
			}
			return err
		}},
		{"ping", func() error { return client.Ping(t.Context(), addr) }},
		{"compute", func() error { _, err := client.Compute(t.Context(), addr, []noCodec{{1}}); return err }},
		{"compute-batch", func() error { _, err := computeMat(t.Context(), client, addr, x); return err }},
		{"store", func() error { return cloud.Store(t.Context(), addr, x) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			err := tc.call()
			if err == nil || err.Error() != want {
				t.Fatalf("err = %v, want %q", err, want)
			}
			if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
				t.Fatalf("codec error took %v, want immediate", elapsed)
			}
		})
	}
}

// TestFloat64HasNoWireCodec: Real deployments never leave the host, so
// float64 is refused like any element type without a codec — by the server
// constructor, and by a zero-value client before it dials an address nobody
// listens on (a dial would surface "connection refused" instead).
func TestFloat64HasNoWireCodec(t *testing.T) {
	const want = "transport: element type float64 has no wire codec"
	srv, err := NewDeviceServer[float64](field.Real{}, "127.0.0.1:0")
	if err == nil {
		_ = srv.Close()
	}
	if err == nil || err.Error() != want {
		t.Fatalf("NewDeviceServer[float64] err = %v, want %q", err, want)
	}
	if _, err := (Client[float64]{}).Compute(t.Context(), "127.0.0.1:1", []float64{1}); err == nil || err.Error() != want {
		t.Fatalf("Client[float64].Compute err = %v, want %q", err, want)
	}
}

// TestTeardownDeliversEveryCall: calls sent with Go on one pooled connection
// share one done channel. When the device drops the connection with all of
// them in flight, teardown must deliver every one — each retried once on a
// fresh connection, whose dial the device refuses — and each must be
// recorded as exactly one failed round trip.
func TestTeardownDeliversEveryCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drop := make(chan struct{})
	go func() {
		for first := true; ; first = false {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if !first {
				_ = conn.Close() // later dials fail their handshake
				continue
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, helloLen)
				if _, err := io.ReadFull(conn, buf); err != nil {
					return
				}
				h := serverHello(1, helloOK)
				_, _ = conn.Write(h[:])
				go func() { _, _ = io.Copy(io.Discard, conn) }()
				<-drop
			}()
		}
	}()
	addr := ln.Addr().String()
	reg := obs.New()
	pool := NewPool[uint64]()
	client := Client[uint64]{F: field.Prime{}, Timeout: 5 * time.Second, Metrics: reg, Pool: pool}
	// Pool the connection: the silent device never answers this ping.
	ctx, cancel := context.WithTimeout(t.Context(), 100*time.Millisecond)
	_ = client.Ping(ctx, addr)
	cancel()

	const n = 8
	calls := make([]Call[uint64], n)
	done := make(chan *Call[uint64], n)
	for i := range calls {
		calls[i].Tag = i
		client.Go(t.Context(), addr, vec([]uint64{uint64(i)}), &calls[i], done)
	}
	for deadline := time.Now().Add(5 * time.Second); pool.Debug(addr).InFlight != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls registered on the pooled connection", pool.Debug(addr).InFlight, n)
		}
	}
	close(drop)
	seen := make([]bool, n)
	for finished := 0; finished < n; {
		select {
		case c := <-done:
			if !c.Receive() {
				continue // retried on a fresh connection
			}
			if c.Err == nil || seen[c.Tag] {
				t.Fatalf("call %d finished with err %v (seen before: %v)", c.Tag, c.Err, seen[c.Tag])
			}
			seen[c.Tag] = true
			finished++
		case <-time.After(10 * time.Second):
			t.Fatalf("teardown delivered %v, want every call", seen)
		}
	}
	snap := reg.Snapshot()
	// n computes plus the ping that pooled the connection.
	if got := snapshotValue(snap, obs.MetricRPCClientRequests); got != n+1 {
		t.Errorf("%s = %g, want %d: one observation per call, retry included", obs.MetricRPCClientRequests, got, n+1)
	}
	if got := snapshotValue(snap, obs.MetricRPCClientErrors); got != n+1 {
		t.Errorf("%s = %g, want %d", obs.MetricRPCClientErrors, got, n+1)
	}
}
