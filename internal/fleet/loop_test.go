package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/scec/scec/internal/faultproxy"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
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
	env.proxies[0][0].SetDelay(hold, 0)
	env.proxies[0][0].SetMode(faultproxy.Delay) // severs the pooled connection: the next send redials
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

// TestFaultSlowLiveReplicaLosesTheLead: block 0's replica 0 answers every
// chunk 20 ms late but stays alive — nothing fails, so its breaker stays
// closed. Under the default adaptive hedge the block must route by the
// replicas' own attempt latencies: once replica 0's record shows it slow,
// its healthy peer leads, so after warm-up a query costs a healthy round and
// the slow replica wins none of the block's rounds. The demotion is
// journaled once, not once per round: one straggler event for block 0
// naming the slow replica. A healthy block may trade its lead when a
// leader's first measured p50 exceeds a cold peer's prior (a slow build,
// such as -race, does that), but each of its events then records a change —
// it undoes the one before — and none names the slow replica.
func TestFaultSlowLiveReplicaLosesTheLead(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	env.cfg.HedgeAfter = 0
	env.cfg.ProbeInterval = 100 * time.Millisecond
	jr := flight.New(flight.Options{Capacity: 1024})
	env.cfg.Journal = jr
	slow := env.cfg.Replicas[0][0]
	env.proxies[0][0].SetDelay(20*time.Millisecond, 0)
	env.proxies[0][0].SetMode(faultproxy.Delay)
	s := env.serve(t)
	var lat []time.Duration
	var slowWins int64
	for i := range 60 {
		if i == 20 {
			slowWins = s.devices[slow].wins.Load()
		}
		start := time.Now()
		got, err := mulVec(s, env.x)
		lat = append(lat, time.Since(start))
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		checkResult(t, env.want, got)
	}
	late := slices.Clone(lat[20:])
	slices.Sort(late)
	if med := late[len(late)/2]; med > 2*time.Millisecond {
		t.Errorf("median of queries 21-60 is %v, want <= 2ms; latencies %v", med, lat)
	}
	if n := s.devices[slow].wins.Load() - slowWins; n != 0 {
		t.Errorf("the slow replica won %d of block 0's last 40 rounds, want none; debug %+v", n, s.Debug().Blocks[0])
	}
	var block0 []flight.Event
	last := map[int64]flight.Event{}
	for _, ev := range jr.Snapshot() {
		switch {
		case ev.Kind != flight.KindStraggler:
		case ev.A == 0:
			block0 = append(block0, ev)
		case ev.Actor == slow || ev.Detail == slow:
			t.Errorf("block %d's straggler event %+v names block 0's slow replica", ev.A, ev)
		default:
			if prev, ok := last[ev.A]; ok && prev.Detail != ev.Actor {
				t.Errorf("block %d journaled %+v after %+v: not one event per change of leader", ev.A, ev, prev)
			}
			last[ev.A] = ev
		}
	}
	if len(block0) != 1 || block0[0].Actor != slow || block0[0].Detail != env.cfg.Replicas[0][1] {
		t.Errorf("block 0 straggler events %+v, want one demoting %s in favour of %s", block0, slow, env.cfg.Replicas[0][1])
	}
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
	for _, group := range env.proxies {
		group[0].SetDelay(0, maxDelay)
		group[0].SetMode(faultproxy.Delay)
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
		if err := s.GatherInto(ctx, matrix.FromSlice(len(x), 1, x), matrix.FromSlice(len(y), 1, y)); err != nil {
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
// connection reader or flusher outlives them.
func TestSessionCloseLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	env := newTestEnv(t, 2, 0)
	env.cfg.HedgeAfter = 2 * time.Millisecond
	env.cfg.RPCTimeout = 200 * time.Millisecond
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
	env.proxies[0][0].SetDelay(100*time.Millisecond, 0)
	env.proxies[0][0].SetMode(faultproxy.Delay)
	mustServe("hedged")
	env.proxies[1][0].SetMode(faultproxy.Drop)
	mustServe("failed-over")
	for _, p := range env.proxies[2] {
		p.SetMode(faultproxy.Blackhole)
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
