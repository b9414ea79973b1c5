package scec_test

import (
	"context"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/faultproxy"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/transport"
)

// tracedFleet is a live 3-device replicated fleet with fault proxies in
// front of every replica and one tracer shared by the engine, the fleet
// session, and (via adoption) the device servers.
type tracedFleet struct {
	dep     *scec.Deployment[uint64]
	served  *scec.Served[uint64]
	tr      *scec.Tracer
	proxies [][]*faultproxy.Proxy
	x       []uint64
	want    []uint64
}

// newTracedFleet deploys a 40×10 matrix over three coded blocks, two real
// device servers per block (each behind a faultproxy.Proxy), with coalescing
// on so single queries still traverse the batching layer.
func newTracedFleet(t *testing.T) *tracedFleet {
	t.Helper()
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(29, 31))
	a := scec.RandomMatrix(f, rng, 40, 10)
	dep, err := scec.Deploy(f, a, []float64{1, 1, 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Devices() != 3 {
		t.Fatalf("deployment has %d coded blocks, want 3", dep.Devices())
	}

	tr := scec.NewTracer(scec.TracerOptions{Service: "e2e-user"})
	devTr := trace.New(trace.Options{Service: "e2e-device"})
	cfg := scec.FleetConfig{
		Replicas:      make([][]string, dep.Devices()),
		ProbeInterval: -1, // deterministic: no background probing
		HedgeAfter:    -1, // hedging off; failover comes from injected faults
		Tracer:        tr,
	}
	proxies := make([][]*faultproxy.Proxy, dep.Devices())
	for j := range cfg.Replicas {
		for k := 0; k < 2; k++ {
			srv, err := transport.NewDeviceServerOptions[uint64](f, "127.0.0.1:0",
				transport.Options{Tracer: devTr})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			px, err := faultproxy.New(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = px.Close() })
			proxies[j] = append(proxies[j], px)
			cfg.Replicas[j] = append(cfg.Replicas[j], px.Addr())
		}
	}
	served, err := scec.Serve(dep, cfg, scec.WithCoalescing[uint64](time.Millisecond, 8))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = served.Close() })

	x := scec.RandomVector(f, rng, 10)
	return &tracedFleet{
		dep: dep, served: served, tr: tr, proxies: proxies,
		x: x, want: scec.MulVec(f, a, x),
	}
}

func (e *tracedFleet) checkAnswer(t *testing.T, got []uint64) {
	t.Helper()
	for i := range got {
		if got[i] != e.want[i] {
			t.Fatal("traced fleet decoded the wrong result")
		}
	}
}

// TestTraceEndToEndFleet is the acceptance scenario: a single MulVec
// against a live 3-device fleet with one injected fault must produce one
// trace whose spans cover the engine query layer, the coalescer, the
// per-block replica races with the failover, the transport round trips,
// and the device-side compute — all under one trace ID with parent/child
// nesting intact.
func TestTraceEndToEndFleet(t *testing.T) {
	e := newTracedFleet(t)
	dead, live := e.proxies[0][0], e.proxies[0][1]
	dead.SetMode(faultproxy.Drop)

	got, err := e.served.MulVec(e.x)
	if err != nil {
		t.Fatal(err)
	}
	e.checkAnswer(t, got)

	views := e.tr.Assemble()
	if len(views) != 1 {
		ids := make([]string, 0, len(views))
		for _, v := range views {
			ids = append(ids, v.TraceID)
		}
		t.Fatalf("one MulVec produced %d traces %v, want exactly 1", len(views), ids)
	}
	v := views[0]

	// Every layer's span is present, and all of them carry the one trace ID.
	byName := map[string][]trace.SpanView{}
	for _, sp := range v.Spans {
		if sp.TraceID != v.TraceID {
			t.Fatalf("span %s carries trace %s, want %s", sp.Name, sp.TraceID, v.TraceID)
		}
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	for _, name := range []string{
		trace.SpanQueryVec, trace.SpanCoalesceWait, trace.SpanFleetGather,
		trace.SpanFleetBlock, trace.SpanFleetAttempt,
		trace.SpanRPCClient, trace.SpanRPCServer, trace.SpanDeviceCompute,
	} {
		if len(byName[name]) == 0 {
			t.Errorf("trace is missing %s spans (have %v)", name, names(v))
		}
	}
	if n := len(byName[trace.SpanFleetBlock]); n != 3 {
		t.Errorf("trace has %d fleet.block spans, want one per coded block (3)", n)
	}

	// Parent/child nesting: exactly one root (the engine query span), every
	// other span's parent is retained in the same trace, and each child's
	// interval sits inside its parent's.
	byID := map[string]trace.SpanView{}
	var roots []trace.SpanView
	for _, sp := range v.Spans {
		byID[sp.SpanID] = sp
	}
	for _, sp := range v.Spans {
		if sp.ParentID == "" {
			roots = append(roots, sp)
			continue
		}
		p, ok := byID[sp.ParentID]
		if !ok {
			t.Errorf("span %s has unretained parent %s", sp.Name, sp.ParentID)
			continue
		}
		if sp.Start.Before(p.Start) || p.End.Before(sp.End) {
			t.Errorf("span %s [%v,%v] escapes parent %s [%v,%v]",
				sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
		}
	}
	if len(roots) != 1 || roots[0].Name != trace.SpanQueryVec {
		t.Fatalf("trace roots = %+v, want exactly one %s", roots, trace.SpanQueryVec)
	}

	// The injected fault's story: a failed attempt attributed to the dead
	// proxy, a failover event naming the survivor, and a winning attempt on
	// the survivor — plus device-compute spans stitched in from the device
	// tracer's service.
	var sawFail, sawWin, sawFailover bool
	for _, sp := range byName[trace.SpanFleetAttempt] {
		switch sp.Attr(trace.AttrDevice) {
		case dead.Addr():
			if sp.Error != "" {
				sawFail = true
			}
		case live.Addr():
			if sp.Attr(trace.AttrWin) == "true" && sp.Error == "" {
				sawWin = true
			}
		}
		for _, ev := range sp.Events {
			if ev.Name == trace.EventFailover {
				sawFailover = true
			}
		}
	}
	if !sawFailover {
		// The failover event lands on the block span in the current layout;
		// accept either placement.
		for _, sp := range byName[trace.SpanFleetBlock] {
			for _, ev := range sp.Events {
				if ev.Name == trace.EventFailover {
					sawFailover = true
				}
			}
		}
	}
	if !sawFail {
		t.Errorf("no failed attempt span attributed to the dead replica %s", dead.Addr())
	}
	if !sawWin {
		t.Errorf("no winning attempt span attributed to the surviving replica %s", live.Addr())
	}
	if !sawFailover {
		t.Errorf("trace carries no %s event for the injected fault", trace.EventFailover)
	}
	for _, sp := range byName[trace.SpanDeviceCompute] {
		if sp.Service != "e2e-device" {
			t.Errorf("device.compute span attributed to service %q, want e2e-device", sp.Service)
		}
	}
	if v.ErrorCount == 0 {
		t.Error("trace records no errored span despite the injected fault")
	}
}

// TestTraceDebugEndpointsLiveJSON hammers /debug/traces, /debug/fleet, and
// /debug/engine over a real telemetry mux while traced queries are in
// flight: every response must be 200 with a valid JSON body. Run under
// -race this doubles as the concurrent-introspection safety check.
func TestTraceDebugEndpointsLiveJSON(t *testing.T) {
	e := newTracedFleet(t)
	e.proxies[1][0].SetMode(faultproxy.Drop) // keep failovers happening mid-flight

	h := trace.DebugHandler(e.tr)
	srv := httptest.NewServer(obs.New().Handler(
		obs.Route{Pattern: "/debug/traces", Handler: h},
		obs.Route{Pattern: "/debug/traces/{id}", Handler: h},
		obs.Route{Pattern: "/debug/fleet", Handler: e.served.FleetDebugHandler()},
		obs.Route{Pattern: "/debug/engine", Handler: e.served.EngineDebugHandler()},
	))
	defer srv.Close()

	const workers, queries = 4, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < queries; q++ {
				got, err := e.served.MulVecContext(context.Background(), e.x)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				e.checkAnswer(t, got)
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	paths := []string{"/debug/traces", "/debug/fleet", "/debug/engine"}
	poll := func() {
		for _, path := range paths {
			resp, err := http.Get(srv.URL + path)
			if err != nil {
				t.Errorf("GET %s: %v", path, err)
				continue
			}
			body, err := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if err != nil {
				t.Errorf("GET %s: read: %v", path, err)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: status %d", path, resp.StatusCode)
			}
			if !json.Valid(body) {
				t.Errorf("GET %s: invalid JSON mid-flight: %.120s", path, body)
			}
		}
	}
	for polled := 0; ; polled++ {
		select {
		case <-done:
			if polled == 0 {
				poll() // queries finished instantly; still check once
			}
			// One full trace must be addressable by ID after the burst.
			views := e.tr.Assemble()
			if len(views) == 0 {
				t.Fatal("no traces retained after concurrent queries")
			}
			resp, err := http.Get(srv.URL + "/debug/traces/" + views[0].TraceID)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !json.Valid(body) {
				t.Fatalf("GET /debug/traces/{id}: status %d, body %.120s", resp.StatusCode, body)
			}
			return
		default:
			poll()
		}
	}
}

func names(v trace.TraceView) []string {
	out := make([]string, len(v.Spans))
	for i, sp := range v.Spans {
		out[i] = sp.Name
	}
	return out
}
