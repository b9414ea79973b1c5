package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/scec/scec/internal/faultproxy"
	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/obs/trace"
)

// TestStragglerAttribution drives the device record directly: one outcome
// per attempt, hedge wins credited, and only wins — and overtaken losses
// while the device has fewer than MinAdaptiveSamples samples — entering the
// latency window, which keeps the last latencyWindow of them.
func TestStragglerAttribution(t *testing.T) {
	a, b := &device{addr: "a"}, &device{addr: "b"}
	for i := 1; i <= 100; i++ {
		a.recordAttempt(attemptWin, false, time.Duration(i)*time.Millisecond)
	}
	a.recordAttempt(attemptOvertaken, false, time.Hour) // measured: adds no sample
	b.recordAttempt(attemptWin, true, 5*time.Millisecond)
	b.recordAttempt(attemptError, false, 0)
	b.recordAttempt(attemptLoss, true, time.Hour)                // a loss adds no sample
	b.recordAttempt(attemptOvertaken, false, 3*time.Millisecond) // cold: adds its lower bound

	sa := a.stats()
	if sa.Device != "a" || sa.Attempts != 101 || sa.Wins != 100 || sa.Losses != 1 || sa.Samples != latencyWindow {
		t.Fatalf("device a: %+v", sa)
	}
	// The window holds wins 37..100 ms; nearest rank over its 64 entries.
	if sa.P50 != 68*time.Millisecond || sa.P95 != 96*time.Millisecond || sa.P99 != 99*time.Millisecond {
		t.Errorf("device a percentiles p50=%v p95=%v p99=%v, want 68ms 96ms 99ms", sa.P50, sa.P95, sa.P99)
	}
	want := DeviceStats{Device: "b", Attempts: 4, Wins: 1, HedgeWins: 1, Losses: 2, Errors: 1, Samples: 2,
		P50: 3 * time.Millisecond, P95: 3 * time.Millisecond, P99: 3 * time.Millisecond}
	if sb := b.stats(); sb != want {
		t.Errorf("device b = %+v, want %+v", sb, want)
	}
}

// attemptSpans returns the ended fleet.attempt spans, by device.
func attemptSpans(tr *trace.Tracer) map[string][]trace.SpanData {
	out := map[string][]trace.SpanData{}
	for _, sd := range tr.Snapshot() {
		if sd.Name == trace.SpanFleetAttempt {
			dev := sd.Attr(trace.AttrDevice)
			out[dev] = append(out[dev], sd)
		}
	}
	return out
}

// TestRaceSettlesLateLoser: block 0's leader is held at its dial while the
// 1 ms hedge answers, so the race has a winner and a loser still in flight
// when it is decided. Every launched attempt must end its span once with
// one outcome, each raced block must have exactly one attempt marked win,
// and the device records must agree with the spans — whatever the other
// blocks' hedges did. A record's window holds a sample per win and at most
// one per overtaken loss: a loser withdrawn unanswered that was launched
// before its block's winner, which only an unhedged attempt can be. The
// held leader is one, on a device with no other sample.
func TestRaceSettlesLateLoser(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	tr := trace.New(trace.Options{Service: "fleet-test"})
	env.cfg.Tracer = tr
	env.cfg.HedgeAfter = time.Millisecond
	s := env.serve(t)
	// Held far longer than the hedge needs, so the hedge wins even on a
	// loaded host.
	env.proxies[0][0].SetDelay(time.Second, 0)
	env.proxies[0][0].SetMode(faultproxy.Delay)

	got, err := mulVec(s, env.x)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, env.want, got)

	spans := attemptSpans(tr)
	records := map[string]DeviceStats{}
	for _, st := range s.Stragglers() {
		records[st.Device] = st
	}
	for j, group := range env.proxies {
		winners := 0
		for _, p := range group {
			var wins, losses, unhedgedLosses int64
			for _, sd := range spans[p.Addr()] {
				if sd.Error != "" {
					t.Errorf("attempt on %s ended with error %q", p.Addr(), sd.Error)
				}
				switch {
				case sd.Attr(trace.AttrWin) == "true":
					wins++
				case sd.Attr(trace.AttrHedged) == "false":
					unhedgedLosses++
					losses++
				default:
					losses++
				}
			}
			winners += int(wins)
			st := records[p.Addr()]
			if st.Attempts != wins+losses || st.Wins != wins || st.Losses != losses || st.Errors != 0 ||
				st.Samples < int(wins) || st.Samples > int(wins+unhedgedLosses) {
				t.Errorf("block %d: record %+v does not match %d won and %d lost (%d unhedged) attempt spans", j, st, wins, losses, unhedgedLosses)
			}
		}
		if winners != 1 {
			t.Errorf("block %d: %d attempts marked win, want 1", j, winners)
		}
	}
	leader, hedge := records[env.proxies[0][0].Addr()], records[env.proxies[0][1].Addr()]
	if leader.Attempts != 1 || leader.Losses != 1 || leader.Samples != 1 || hedge.Wins != 1 || hedge.HedgeWins != 1 {
		t.Errorf("block 0: held leader %+v, hedge %+v; want the leader's one attempt overtaken and the hedge won", leader, hedge)
	}
}

// TestStragglersGetAttemptLatency: a win files the attempt's own latency,
// launch to answer, on its device's record. Block 0's leader is held on
// every reply, so its hedge, launched 100 ms into the round, wins in a
// loopback round trip: the one sample on the hedge's record must be below
// the hedge delay it waited out.
func TestStragglersGetAttemptLatency(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	const hedge = 100 * time.Millisecond
	env.cfg.HedgeAfter = hedge
	s := env.serve(t)
	env.proxies[0][0].SetDelay(10*time.Second, 0)
	env.proxies[0][0].SetMode(faultproxy.Delay)
	start := time.Now()
	got, err := mulVec(s, env.x)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, env.want, got)
	if took := time.Since(start); took < hedge {
		t.Fatalf("the query took %v, less than the %v hedge: block 0 did not hedge", took, hedge)
	}
	for _, st := range s.Stragglers() {
		if st.Device != env.cfg.Replicas[0][1] {
			continue
		}
		if st.Wins != 1 || st.HedgeWins != 1 || st.Samples != 1 || st.P50 <= 0 || st.P50 >= hedge {
			t.Fatalf("block 0's hedge record %+v, want one hedge win sampled in (0, %v): its own round trip", st, hedge)
		}
		return
	}
	t.Fatalf("no record for block 0's hedge %s", env.cfg.Replicas[0][1])
}

// TestSingleReplicaAttemptSettlesOnce: a block with one replica has nothing
// to hedge or fail over to, and each round's one attempt must be filed
// exactly as a raced one — one settlement, the win's bookkeeping on a win,
// the breaker and a timeout event on a device failure or deadline, and
// neither on a caller's cancel. A failing device is asked once per round,
// DefaultMaxRetries+1 times. Block 0's proxy decides the outcome; blocks 1
// and 2 answer normally.
func TestSingleReplicaAttemptSettlesOnce(t *testing.T) {
	type fixture struct {
		s   *Session[uint64]
		env *testEnv
		d   *device
		tr  *trace.Tracer
		jr  *flight.Journal
	}
	setup := func(t *testing.T, mode faultproxy.Mode, tune func(*Config)) fixture {
		env := newTestEnv(t, 1, 0)
		tr := trace.New(trace.Options{Service: "fleet-test"})
		jr := flight.New(flight.Options{Capacity: 64})
		env.cfg.Tracer, env.cfg.Journal = tr, jr
		if tune != nil {
			tune(&env.cfg)
		}
		s := env.serve(t)
		env.proxies[0][0].SetMode(mode)
		return fixture{s, env, s.devices[env.cfg.Replicas[0][0]], tr, jr}
	}
	check := func(t *testing.T, f fixture, want DeviceStats, fails int) {
		t.Helper()
		st := f.d.stats()
		// Only a win files a latency: a failed or cancelled attempt adds
		// no sample.
		if st.Attempts != want.Attempts || st.Wins != want.Wins || st.Losses != want.Losses || st.Errors != want.Errors ||
			st.Samples != int(want.Wins) {
			t.Errorf("record %+v, want attempts=%d wins=%d losses=%d errors=%d and a sample per win", st, want.Attempts, want.Wins, want.Losses, want.Errors)
		}
		f.d.mu.Lock()
		got := f.d.fails
		f.d.mu.Unlock()
		if got != fails {
			t.Errorf("breaker counted %d failures, want %d", got, fails)
		}
		if spans := attemptSpans(f.tr)[f.d.addr]; int64(len(spans)) != want.Attempts {
			t.Errorf("%d attempt spans ended for block 0, want %d", len(spans), want.Attempts)
		}
	}
	const rounds = DefaultMaxRetries + 1
	timeouts := func(t *testing.T, f fixture) int {
		t.Helper()
		n := 0
		for _, ev := range f.jr.Snapshot() {
			if ev.Kind == flight.KindTimeout {
				n++
				if ev.Actor != f.d.addr || ev.A != 0 {
					t.Errorf("timeout event %+v, want actor %s block 0", ev, f.d.addr)
				}
			}
		}
		return n
	}

	t.Run("win", func(t *testing.T) {
		f := setup(t, faultproxy.None, nil)
		got, err := mulVec(f.s, f.env.x)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, f.env.want, got)
		check(t, f, DeviceStats{Attempts: 1, Wins: 1}, 0)
		if spans := attemptSpans(f.tr)[f.d.addr]; len(spans) != 1 || spans[0].Attr(trace.AttrWin) != "true" || spans[0].Error != "" {
			t.Errorf("attempt spans %+v, want one ended with win=true", spans)
		}
		for _, st := range f.s.Stragglers() {
			if st.Wins != 1 || st.Samples != 1 || st.P50 <= 0 {
				t.Errorf("record %+v, want every block's one replica to have won once, sampled above 0", st)
			}
		}
	})
	t.Run("device error", func(t *testing.T) {
		f := setup(t, faultproxy.Drop, nil)
		if _, err := mulVec(f.s, f.env.x); !errors.Is(err, ErrBlockUnavailable) {
			t.Fatalf("err = %v, want ErrBlockUnavailable over a failing replica", err)
		}
		check(t, f, DeviceStats{Attempts: rounds, Errors: rounds}, rounds)
		for _, sp := range attemptSpans(f.tr)[f.d.addr] {
			if sp.Error == "" || sp.Attr(trace.AttrWin) != "" {
				t.Errorf("attempt span %+v, want it ended with the device error", sp)
			}
		}
	})
	t.Run("caller cancel", func(t *testing.T) {
		f := setup(t, faultproxy.Blackhole, nil)
		ctx, cancel := context.WithCancel(t.Context())
		time.AfterFunc(20*time.Millisecond, cancel) // the caller leaves while block 0 is in flight
		if _, err := f.s.GatherContext(ctx, f.env.x); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		check(t, f, DeviceStats{Attempts: 1, Losses: 1}, 0)
		if n := timeouts(t, f); n != 0 {
			t.Errorf("a caller's cancel was journaled as %d timeouts", n)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		f := setup(t, faultproxy.Blackhole, nil)
		ctx, cancel := context.WithTimeout(t.Context(), 100*time.Millisecond)
		defer cancel()
		if _, err := f.s.GatherContext(ctx, f.env.x); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		check(t, f, DeviceStats{Attempts: 1, Errors: 1}, 1)
		if n := timeouts(t, f); n != 1 {
			t.Errorf("%d timeout events, want 1", n)
		}
	})
	t.Run("rpc timeout", func(t *testing.T) {
		f := setup(t, faultproxy.Blackhole, func(c *Config) { c.RPCTimeout = 100 * time.Millisecond })
		_, err := mulVec(f.s, f.env.x)
		if !errors.Is(err, ErrBlockUnavailable) || !isTimeout(err) {
			t.Fatalf("err = %v, want ErrBlockUnavailable wrapping a deadline", err)
		}
		check(t, f, DeviceStats{Attempts: rounds, Errors: rounds}, rounds)
		if n := timeouts(t, f); n != rounds {
			t.Errorf("%d timeout events, want %d", n, rounds)
		}
	})
}

// TestUntracedDebugCarriesStragglers: the straggler record needs no tracer.
// An untraced session's /debug/fleet lists every device it knows, with the
// attempts and wins of the replicas that served.
func TestUntracedDebugCarriesStragglers(t *testing.T) {
	env := newTestEnv(t, 1, 1)
	s := env.serve(t)
	const queries = 3
	for range queries {
		if _, err := mulVec(s, env.x); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/fleet", nil))
	var body struct {
		Stragglers []DeviceStats `json:"stragglers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	byAddr := map[string]DeviceStats{}
	for _, st := range body.Stragglers {
		byAddr[st.Device] = st
	}
	if len(byAddr) != len(env.proxies)+len(env.standbys) {
		t.Fatalf("/debug/fleet stragglers cover %d devices, want every replica and standby: %+v", len(byAddr), body.Stragglers)
	}
	for j := range env.proxies {
		st := byAddr[env.proxies[j][0].Addr()]
		if st.Attempts != queries || st.Wins != queries || st.Samples != queries || st.P50 <= 0 {
			t.Errorf("block %d replica record %+v, want %d attempts won", j, st, queries)
		}
	}
	if st := byAddr[env.standbys[0].Addr()]; st.Attempts != 0 {
		t.Errorf("idle standby record %+v, want no attempts", st)
	}
}

// TestSharedTracerKeepsSessionsApart: every adaptive reshape builds its new
// session over the same tracer, so two sessions sharing one must keep their
// own records — a closed session's stops moving while the other serves.
func TestSharedTracerKeepsSessionsApart(t *testing.T) {
	tr := trace.New(trace.Options{Service: "fleet-test"})
	first, second := newTestEnv(t, 1, 0), newTestEnv(t, 1, 0)
	first.cfg.Tracer, second.cfg.Tracer = tr, tr
	s1 := first.serve(t)
	if _, err := mulVec(s1, first.x); err != nil {
		t.Fatal(err)
	}
	before := s1.Stragglers()
	_ = s1.Close()

	s2 := second.serve(t)
	for range 5 {
		if _, err := mulVec(s2, second.x); err != nil {
			t.Fatal(err)
		}
	}
	if after := s1.Stragglers(); !reflect.DeepEqual(after, before) {
		t.Fatalf("closed session's record moved while another served over its tracer:\nbefore %+v\nafter  %+v", before, after)
	}
}
