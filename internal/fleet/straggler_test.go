package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/obs/trace"
)

// TestStragglerAttribution drives the device record directly: one outcome
// per attempt, hedge wins credited, and only wins entering the latency
// window, which keeps the last latencyWindow of them.
func TestStragglerAttribution(t *testing.T) {
	a, b := &device{addr: "a"}, &device{addr: "b"}
	for i := 1; i <= 100; i++ {
		a.recordAttempt(attemptWin, false, time.Duration(i)*time.Millisecond)
	}
	b.recordAttempt(attemptWin, true, 5*time.Millisecond)
	b.recordAttempt(attemptError, false, 0)
	b.recordAttempt(attemptLoss, true, time.Hour) // a loss adds no sample

	sa := a.stats()
	if sa.Device != "a" || sa.Attempts != 100 || sa.Wins != 100 || sa.Samples != latencyWindow {
		t.Fatalf("device a: %+v", sa)
	}
	// The window holds wins 37..100 ms; nearest rank over its 64 entries.
	if sa.P50 != 68*time.Millisecond || sa.P95 != 96*time.Millisecond || sa.P99 != 99*time.Millisecond {
		t.Errorf("device a percentiles p50=%v p95=%v p99=%v, want 68ms 96ms 99ms", sa.P50, sa.P95, sa.P99)
	}
	want := DeviceStats{Device: "b", Attempts: 3, Wins: 1, HedgeWins: 1, Losses: 1, Errors: 1, Samples: 1,
		P50: 5 * time.Millisecond, P95: 5 * time.Millisecond, P99: 5 * time.Millisecond}
	if sb := b.stats(); sb != want {
		t.Errorf("device b = %+v, want %+v", sb, want)
	}
}

// TestRaceSettlesLateLoser: both replicas of a block answer, so the race has
// a winner and a loser that answers after the race returns. Every launched
// attempt must end its span once with one outcome, the value returned must
// be the one from the attempt marked win, and the device records must agree.
func TestRaceSettlesLateLoser(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	tr := trace.New(trace.Options{Service: "fleet-test"})
	env.cfg.Tracer = tr
	env.cfg.HedgeAfter = time.Millisecond
	s := env.serve(t)
	b := s.blocks[0]

	// Each call holds until both attempts run, then answers with its address.
	var running sync.WaitGroup
	running.Add(2)
	call := func(_ context.Context, _ *blockState[uint64], addr string) (string, error) {
		running.Done()
		running.Wait()
		return addr, nil
	}
	got, err := raceReplicas(s, context.Background(), b, b.candidates(time.Now(), s.cfg.BreakerCooldown, nil), call)
	if err != nil {
		t.Fatal(err)
	}

	var attempts []trace.SpanData
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		attempts = attempts[:0]
		for _, sd := range tr.Snapshot() {
			if sd.Name == trace.SpanFleetAttempt {
				attempts = append(attempts, sd)
			}
		}
		if len(attempts) >= 2 || time.Now().After(deadline) {
			break
		}
	}
	if len(attempts) != 2 {
		t.Fatalf("%d of 2 launched attempts ended their span", len(attempts))
	}
	var winners []string
	for _, sd := range attempts {
		if sd.Error != "" {
			t.Errorf("attempt on %s ended with error %q", sd.Attr(trace.AttrDevice), sd.Error)
		}
		if sd.Attr(trace.AttrWin) == "true" {
			winners = append(winners, sd.Attr(trace.AttrDevice))
		}
	}
	if len(winners) != 1 || winners[0] != got {
		t.Fatalf("attempts marked win: %v; race returned %s's value", winners, got)
	}
	raced := map[string]bool{env.proxies[0][0].Addr(): true, env.proxies[0][1].Addr(): true}
	for _, st := range s.Stragglers() {
		if !raced[st.Device] {
			continue
		}
		won := st.Device == got
		if st.Attempts != 1 || won && (st.Wins != 1 || st.Samples != 1) || !won && st.Losses != 1 {
			t.Errorf("record %+v does not match one attempt each, won by %s", st, got)
		}
	}
}

// TestSingleReplicaAttemptSettlesOnce: a race with one candidate runs its
// attempt on the calling goroutine, and must file every outcome exactly as
// the racing path does — one settlement per attempt, the win's bookkeeping
// on a win, the breaker and a timeout event on a device failure, and
// neither on a caller's cancel.
func TestSingleReplicaAttemptSettlesOnce(t *testing.T) {
	type win struct {
		device string
		block  int
	}
	setup := func(t *testing.T) (*Session[uint64], *trace.Tracer, *flight.Journal, *[]win) {
		env := newTestEnv(t, 1, 0)
		tr := trace.New(trace.Options{Service: "fleet-test"})
		jr := flight.New(flight.Options{Capacity: 64})
		var wins []win
		env.cfg.Tracer, env.cfg.Journal = tr, jr
		env.cfg.OnWin = func(device string, block int, latency time.Duration) {
			if latency <= 0 {
				t.Errorf("OnWin latency %v, want > 0", latency)
			}
			wins = append(wins, win{device, block})
		}
		return env.serve(t), tr, jr, &wins
	}
	// race runs block 0's one-candidate race with call standing in for the
	// replica request, returning the block's one device.
	race := func(t *testing.T, s *Session[uint64], ctx context.Context, call func(context.Context) error) (*device, error) {
		b := s.blocks[0]
		cands := b.candidates(time.Now(), s.cfg.BreakerCooldown, nil)
		if len(cands) != 1 {
			t.Fatalf("%d candidates, want 1", len(cands))
		}
		_, err := raceReplicas(s, ctx, b, cands, func(ctx context.Context, _ *blockState[uint64], _ string) (int, error) {
			return 7, call(ctx)
		})
		return cands[0], err
	}
	attemptSpans := func(tr *trace.Tracer) []trace.SpanData {
		var out []trace.SpanData
		for _, sd := range tr.Snapshot() {
			if sd.Name == trace.SpanFleetAttempt {
				out = append(out, sd)
			}
		}
		return out
	}
	check := func(t *testing.T, d *device, want DeviceStats, fails int) {
		t.Helper()
		st := d.stats()
		if st.Attempts != want.Attempts || st.Wins != want.Wins || st.Losses != want.Losses || st.Errors != want.Errors {
			t.Errorf("record %+v, want attempts=%d wins=%d losses=%d errors=%d", st, want.Attempts, want.Wins, want.Losses, want.Errors)
		}
		d.mu.Lock()
		got := d.fails
		d.mu.Unlock()
		if got != fails {
			t.Errorf("breaker counted %d failures, want %d", got, fails)
		}
	}

	t.Run("win", func(t *testing.T) {
		s, tr, _, wins := setup(t)
		d, err := race(t, s, context.Background(), func(context.Context) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		check(t, d, DeviceStats{Attempts: 1, Wins: 1}, 0)
		spans := attemptSpans(tr)
		if len(spans) != 1 || spans[0].Attr(trace.AttrWin) != "true" || spans[0].Error != "" {
			t.Errorf("attempt spans %+v, want one ended with win=true", spans)
		}
		if len(*wins) != 1 || (*wins)[0] != (win{d.addr, 0}) {
			t.Errorf("OnWin calls %+v, want one for %s block 0", *wins, d.addr)
		}
	})
	t.Run("device error", func(t *testing.T) {
		s, tr, _, wins := setup(t)
		d, err := race(t, s, context.Background(), func(context.Context) error { return errors.New("device says no") })
		if err == nil {
			t.Fatal("race succeeded over a failing replica")
		}
		check(t, d, DeviceStats{Attempts: 1, Errors: 1}, 1)
		if spans := attemptSpans(tr); len(spans) != 1 || spans[0].Error == "" || spans[0].Attr(trace.AttrWin) != "" {
			t.Errorf("attempt spans %+v, want one ended with the device error", spans)
		}
		if len(*wins) != 0 {
			t.Errorf("OnWin fired for a failed attempt: %+v", *wins)
		}
	})
	t.Run("caller cancel", func(t *testing.T) {
		s, _, jr, _ := setup(t)
		ctx, cancel := context.WithCancel(context.Background())
		d, err := race(t, s, ctx, func(ctx context.Context) error {
			cancel() // the caller leaves while the request is in flight
			<-ctx.Done()
			return ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		check(t, d, DeviceStats{Attempts: 1, Losses: 1}, 0)
		for _, ev := range jr.Snapshot() {
			if ev.Kind == flight.KindTimeout {
				t.Errorf("a caller's cancel was journaled as a timeout: %+v", ev)
			}
		}
	})
	t.Run("deadline", func(t *testing.T) {
		s, _, jr, _ := setup(t)
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		defer cancel()
		d, err := race(t, s, ctx, func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		check(t, d, DeviceStats{Attempts: 1, Errors: 1}, 1)
		timeouts := 0
		for _, ev := range jr.Snapshot() {
			if ev.Kind == flight.KindTimeout {
				timeouts++
				if ev.Actor != d.addr || ev.A != 0 {
					t.Errorf("timeout event %+v, want actor %s block 0", ev, d.addr)
				}
			}
		}
		if timeouts != 1 {
			t.Errorf("%d timeout events, want 1", timeouts)
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
