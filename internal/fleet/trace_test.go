package fleet

import (
	"errors"
	"testing"
	"time"

	"github.com/scec/scec/internal/faultproxy"
	"github.com/scec/scec/internal/obs/trace"
)

// gatherTrace returns the assembled trace containing the fleet.gather span.
func gatherTrace(t *testing.T, tr *trace.Tracer) trace.TraceView {
	t.Helper()
	for _, v := range tr.Assemble() {
		for _, sp := range v.Spans {
			if sp.Name == trace.SpanFleetGather {
				return v
			}
		}
	}
	t.Fatal("no trace contains a fleet.gather span")
	return trace.TraceView{}
}

// spansNamed filters a trace's spans by name.
func spansNamed(v trace.TraceView, name string) []trace.SpanView {
	var out []trace.SpanView
	for _, sp := range v.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// eventsNamed collects all events with the given name across a trace.
func eventsNamed(v trace.TraceView, name string) []trace.Event {
	var out []trace.Event
	for _, sp := range v.Spans {
		for _, ev := range sp.Events {
			if ev.Name == name {
				out = append(out, ev)
			}
		}
	}
	return out
}

func attrOf(evs []trace.Event, key string) []string {
	var out []string
	for _, ev := range evs {
		for _, a := range ev.Attrs {
			if a.Key == key {
				out = append(out, a.Value)
			}
		}
	}
	return out
}

// TestTraceFaultInjectionFailover kills the first replica of every block and
// asserts the query's trace records the whole story: a failed attempt on the
// dead proxy, a failover event naming the replica that took over, and a
// winning attempt attributed to it — all in one trace under fleet.gather.
func TestTraceFaultInjectionFailover(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	tr := trace.New(trace.Options{Service: "fleet-test"})
	env.cfg.Tracer = tr
	s := env.serve(t)

	for j := range env.proxies {
		env.proxies[j][0].SetMode(faultproxy.Drop)
	}
	got, err := mulVec(s, env.x)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, env.want, got)

	v := gatherTrace(t, tr)
	if v.ErrorCount == 0 {
		t.Errorf("trace records no failed spans despite %d dead replicas", len(env.proxies))
	}
	blocks := spansNamed(v, trace.SpanFleetBlock)
	if len(blocks) != env.scheme.Devices() {
		t.Fatalf("trace has %d fleet.block spans, want %d", len(blocks), env.scheme.Devices())
	}
	for j := range env.proxies {
		dead, live := env.proxies[j][0].Addr(), env.proxies[j][1].Addr()
		var sawFail, sawWin bool
		for _, sp := range spansNamed(v, trace.SpanFleetAttempt) {
			switch sp.Attr(trace.AttrDevice) {
			case dead:
				if sp.Error != "" {
					sawFail = true
				}
			case live:
				if sp.Attr(trace.AttrWin) == "true" && sp.Error == "" {
					sawWin = true
				}
			}
		}
		if !sawFail {
			t.Errorf("block %d: no failed attempt span attributed to dead replica %s", j, dead)
		}
		if !sawWin {
			t.Errorf("block %d: no winning attempt span attributed to replica %s", j, live)
		}
	}
	failovers := eventsNamed(v, trace.EventFailover)
	if len(failovers) != env.scheme.Devices() {
		t.Errorf("trace has %d failover events, want %d", len(failovers), env.scheme.Devices())
	}
	targets := map[string]bool{}
	for _, addr := range attrOf(failovers, trace.AttrDevice) {
		targets[addr] = true
	}
	for j := range env.proxies {
		if !targets[env.proxies[j][1].Addr()] {
			t.Errorf("block %d: failover event does not name the surviving replica", j)
		}
	}
	// Gather parents every block span; attempts parent under their block.
	byID := map[string]trace.SpanView{}
	for _, sp := range v.Spans {
		byID[sp.SpanID] = sp
	}
	gather := spansNamed(v, trace.SpanFleetGather)[0]
	for _, b := range blocks {
		if b.ParentID != gather.SpanID {
			t.Errorf("block span %s not parented under fleet.gather", b.Attr(trace.AttrBlock))
		}
	}
	for _, a := range spansNamed(v, trace.SpanFleetAttempt) {
		if p, ok := byID[a.ParentID]; !ok || p.Name != trace.SpanFleetBlock {
			t.Errorf("attempt on %s not parented under a fleet.block span", a.Attr(trace.AttrDevice))
		}
	}
}

// TestTraceHedgeWinAttribution delays block 0's leader so the hedged second
// replica wins: the trace must carry the hedge event naming the speculative
// replica, the winner must be marked hedged, and the session's straggler
// record must attribute the hedge win to that device.
func TestTraceHedgeWinAttribution(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	tr := trace.New(trace.Options{Service: "fleet-test"})
	env.cfg.Tracer = tr
	env.cfg.HedgeAfter = 20 * time.Millisecond
	s := env.serve(t)

	env.proxies[0][0].SetDelay(400*time.Millisecond, 0)
	env.proxies[0][0].SetMode(faultproxy.Delay)
	got, err := mulVec(s, env.x)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, env.want, got)

	v := gatherTrace(t, tr)
	hedges := eventsNamed(v, trace.EventHedge)
	if len(hedges) == 0 {
		t.Fatal("trace has no hedge event")
	}
	hedgeTarget := env.proxies[0][1].Addr()
	if addrs := attrOf(hedges, trace.AttrDevice); len(addrs) == 0 || addrs[0] != hedgeTarget {
		t.Errorf("hedge event names %v, want %s", addrs, hedgeTarget)
	}
	var hedgedWin bool
	for _, sp := range spansNamed(v, trace.SpanFleetAttempt) {
		if sp.Attr(trace.AttrDevice) == hedgeTarget &&
			sp.Attr(trace.AttrHedged) == "true" && sp.Attr(trace.AttrWin) == "true" {
			hedgedWin = true
		}
	}
	if !hedgedWin {
		t.Errorf("no winning hedged attempt attributed to %s", hedgeTarget)
	}

	var stats []DeviceStats
	// The winner is settled before its race returns, so the record is
	// already current here.
	for _, ds := range s.Stragglers() {
		if ds.Device == hedgeTarget {
			stats = append(stats, ds)
		}
	}
	if len(stats) != 1 || stats[0].HedgeWins < 1 {
		t.Errorf("straggler record does not credit %s with a hedge win: %+v", hedgeTarget, stats)
	}
}

// TestTraceRetryEvents drops every replica of block 0 so the fetch burns its
// retry rounds: the failed query's trace must carry retry events with round
// indexes and an errored block span, while other blocks still win cleanly.
func TestTraceRetryEvents(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	tr := trace.New(trace.Options{Service: "fleet-test"})
	env.cfg.Tracer = tr
	s := env.serve(t)

	for k := range env.proxies[0] {
		env.proxies[0][k].SetMode(faultproxy.Drop)
	}
	_, err := mulVec(s, env.x)
	if !errors.Is(err, ErrBlockUnavailable) {
		t.Fatalf("err = %v, want ErrBlockUnavailable", err)
	}

	v := gatherTrace(t, tr)
	retries := eventsNamed(v, trace.EventRetry)
	if len(retries) == 0 {
		t.Fatal("failed query's trace has no retry event")
	}
	if rounds := attrOf(retries, trace.AttrRound); len(rounds) == 0 || rounds[0] != "1" {
		t.Errorf("retry rounds = %v, want first round \"1\"", rounds)
	}
	var block0 *trace.SpanView
	for _, sp := range spansNamed(v, trace.SpanFleetBlock) {
		if sp.Attr(trace.AttrBlock) == "0" {
			block0 = &sp
			break
		}
	}
	if block0 == nil {
		t.Fatal("no fleet.block span for block 0")
	}
	if block0.Error == "" {
		t.Errorf("block 0 span carries no error after exhausting replicas")
	}
	if gather := spansNamed(v, trace.SpanFleetGather); gather[0].Error == "" {
		t.Errorf("gather span carries no error for a failed query")
	}
}

// TestDebugSnapshotLive asserts Session.Debug reflects breaker state and
// the straggler records after a faulted query (the /debug/fleet payload).
func TestDebugSnapshotLive(t *testing.T) {
	env := newTestEnv(t, 2, 1)
	tr := trace.New(trace.Options{Service: "fleet-test"})
	env.cfg.Tracer = tr
	env.cfg.BreakerThreshold = 1
	s := env.serve(t)

	for j := range env.proxies {
		env.proxies[j][0].SetMode(faultproxy.Drop)
	}
	if _, err := mulVec(s, env.x); err != nil {
		t.Fatal(err)
	}
	d := s.Debug()
	if len(d.Blocks) != env.scheme.Devices() {
		t.Fatalf("debug has %d blocks, want %d", len(d.Blocks), env.scheme.Devices())
	}
	if len(d.Standbys) != 1 {
		t.Errorf("debug standbys = %d, want 1", len(d.Standbys))
	}
	if d.Queries < 1 {
		t.Errorf("debug queries = %d, want >= 1", d.Queries)
	}
	var sawOpen bool
	for _, b := range d.Blocks {
		for _, r := range b.Replicas {
			if r.Breaker == "open" {
				sawOpen = true
			}
		}
	}
	if !sawOpen {
		t.Errorf("no open breaker in debug snapshot after killing replicas: %+v", d.Blocks)
	}
	if len(d.Stragglers) == 0 {
		t.Errorf("debug snapshot has no straggler records after a query")
	}
}
