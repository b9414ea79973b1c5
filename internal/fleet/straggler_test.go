package fleet

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

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
	got, err := raceReplicas(s, context.Background(), b, b.candidates(time.Now(), s.cfg.BreakerCooldown), call)
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
