package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec/internal/obs"
)

// TestSlowDialDoesNotDelayHedge: a query's sends share one loop, so a leader
// whose connection is still being negotiated must not hold up the hedge. The
// leader's proxy holds its hello for 300 ms; with a 5 ms hedge the query
// answers A·x long before that.
func TestSlowDialDoesNotDelayHedge(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	env.cfg.HedgeAfter = 5 * time.Millisecond
	s := env.serve(t)
	const hold = 300 * time.Millisecond
	env.proxies[0][0].SetDelay(hold)
	env.proxies[0][0].SetMode(FaultDelay) // severs the pooled connection: the next send redials
	start := time.Now()
	got, err := mulVec(s, env.x)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, env.want, got)
	if elapsed >= hold/2 {
		t.Fatalf("query took %v behind a leader held %v at its dial; the 5ms hedge should have answered", elapsed, hold)
	}
	if v := counterValue(t, env.reg, obs.MetricFleetHedgesTotal, nil); v < 1 {
		t.Fatalf("hedges counter = %g, want >= 1", v)
	}
}

// startDelayProxy fronts addr with a proxy that holds each chunk of the
// device's response stream for a random delay below max, so answers land
// after their race was decided — or after their query returned. Closing the
// test severs every proxied connection.
func startDelayProxy(t *testing.T, addr string, max time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	var wg sync.WaitGroup
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seed := uint64(1); ; seed++ {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				_ = down.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, down, up)
			mu.Unlock()
			wg.Add(2)
			go func() {
				defer wg.Done()
				_, _ = io.Copy(up, down)
				_ = up.Close()
			}()
			go func() {
				defer wg.Done()
				defer down.Close()
				rng := rand.New(rand.NewPCG(seed, 13))
				buf := make([]byte, 4096)
				for {
					n, err := up.Read(buf)
					if n > 0 {
						time.Sleep(time.Duration(rng.Int64N(int64(max))))
						if _, err := down.Write(buf[:n]); err != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestLateLoserNeverFeedsNextQuery is the query-level twin of the
// transport's TestCancelledStreamNeverFeedsNextRequest. Every block's leader
// answers through a proxy that delays its responses, and a 1 ms hedge races
// it, so losers answer after their race was decided; half the queries also
// end early on a short caller deadline, leaving answers in flight. Sessions
// recycle a query's channel and attempts, so a late answer that reached the
// next query would decode into a wrong result: every query, each with its
// own x, must return exactly A·x or fail on its own deadline.
func TestLateLoserNeverFeedsNextQuery(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	env.cfg.HedgeAfter = time.Millisecond
	// A caller's deadline counts against the device; keep every breaker
	// closed so each query races both replicas.
	env.cfg.BreakerThreshold = 1 << 30
	const maxDelay = 2 * time.Millisecond
	for j := range env.proxies {
		env.cfg.Replicas[j][0] = startDelayProxy(t, env.proxies[j][0].Addr(), maxDelay)
	}
	s := env.serve(t)
	rng := rand.New(rand.NewPCG(3, 31))
	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	// One result buffer serves every query, as the engine's recycled
	// staging does, while the losers' late replies hand their slabs back
	// for the next query's replies to land in.
	y := make([]uint64, s.Code().M()+s.Code().R())
	query := func(ctx context.Context) error {
		x := make([]uint64, len(env.x))
		for i := range x {
			x[i] = env.f.Rand(rng)
		}
		if err := s.GatherInto(ctx, x, y); err != nil {
			return err
		}
		got, err := s.Code().Decode(y)
		if err != nil {
			return err
		}
		if want := env.mulVec(x); !slices.Equal(got, want) {
			return fmt.Errorf("answer %v for x=%v, want %v", got, x, want)
		}
		return nil
	}
	var cut int
	for i := range rounds {
		ctx, cancel := context.WithTimeout(t.Context(), time.Duration(rng.Int64N(int64(2*maxDelay))))
		err := query(ctx)
		cancel()
		switch {
		case err == nil:
		case errors.Is(err, context.DeadlineExceeded):
			cut++
		default:
			t.Fatalf("round %d, deadline-bounded query: %v", i, err)
		}
		if err := query(t.Context()); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if cut == 0 {
		t.Fatal("no query ended on its deadline; the test exercised nothing")
	}
	var losses int64
	for _, st := range s.Stragglers() {
		losses += st.Losses
	}
	if losses == 0 {
		t.Fatal("no attempt lost a race; the test exercised nothing")
	}
}

// TestSessionCloseLeavesNoGoroutines: a session that served hedged,
// failed-over, caller-cancelled and timed-out queries leaves nothing
// running once it is closed and its devices are gone — no query loop, dial,
// connection reader, heartbeat or flusher outlives them.
func TestSessionCloseLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env := newTestEnv(t, 2, 0)
	env.cfg.HedgeAfter = 2 * time.Millisecond
	env.cfg.RPCTimeout = 200 * time.Millisecond
	env.cfg.MaxRetries = -1
	s := env.serve(t)
	mustServe := func(what string) {
		t.Helper()
		got, err := mulVec(s, env.x)
		if err != nil {
			t.Fatalf("%s query: %v", what, err)
		}
		checkResult(t, env.want, got)
	}
	mustServe("healthy")
	env.proxies[0][0].SetDelay(100 * time.Millisecond)
	env.proxies[0][0].SetMode(FaultDelay)
	mustServe("hedged")
	env.proxies[1][0].SetMode(FaultDrop)
	mustServe("failed-over")
	for _, p := range env.proxies[2] {
		p.SetMode(FaultBlackhole)
	}
	ctx, cancel := context.WithCancel(t.Context())
	time.AfterFunc(10*time.Millisecond, cancel)
	if _, err := s.GatherContext(ctx, env.x); !errors.Is(err, context.Canceled) {
		t.Fatalf("caller-cancelled query: err = %v, want context.Canceled", err)
	}
	if _, err := mulVec(s, env.x); !errors.Is(err, ErrBlockUnavailable) || !isTimeout(err) {
		t.Fatalf("timed-out query: err = %v, want a block unavailable on its deadline", err)
	}
	_ = s.Close()
	for _, group := range env.proxies {
		for _, p := range group {
			_ = p.Close()
		}
	}
	for _, srv := range env.servers {
		_ = srv.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before Serve:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
