package main

import (
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/transport"
)

// startFullDebugServer stands up a Served adaptive fleet with every debug
// surface the binary can mount — fleet, engine, adapt, traces, journal,
// incidents — on one telemetry server, and returns its base URL.
func startFullDebugServer(t *testing.T) (string, []obs.Route) {
	t.Helper()
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(7, 9))
	a := scec.RandomMatrix(f, rng, 20, 6)
	dep, err := scec.Deploy(f, a, []float64{1, 2, 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dep.Close() })

	tr := trace.New(trace.Options{Service: "debug-test"})
	cfg := scec.FleetConfig{
		Replicas:   make([][]string, dep.Devices()),
		RPCTimeout: 2 * time.Second,
		Tracer:     tr,
	}
	for j := range cfg.Replicas {
		srv, err := transport.NewDeviceServerOptions[uint64](f, "127.0.0.1:0", transport.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cfg.Replicas[j] = []string{srv.Addr()}
	}
	served, err := scec.Serve(dep, cfg,
		scec.WithTracing[uint64](tr),
		scec.WithAdaptive[uint64](scec.AdaptiveConfig{ReplanEvery: time.Hour}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { served.Close() })
	if _, err := served.MulVec(scec.RandomVector(f, rng, 6)); err != nil {
		t.Fatal(err)
	}

	// One captured incident so /debug/incidents has content to serve.
	incidentDir := t.TempDir()
	jr := flight.Default()
	jr.Publish(flight.KindShed, "debug-test", 1, 0)
	wd, err := flight.NewWatchdog(flight.Config{
		Dir:   incidentDir,
		Rules: mustRules(t, "journal:shed>=1/10m"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wd.Capture("manual", "debug header sweep"); err != nil {
		t.Fatal(err)
	}

	routes := append([]obs.Route{}, traceRoutes(tr)...)
	routes = append(routes,
		obs.Route{Pattern: "/debug/fleet", Handler: served.FleetDebugHandler(), Desc: "fleet snapshot"},
		obs.Route{Pattern: "/debug/engine", Handler: served.EngineDebugHandler(), Desc: "engine snapshot"},
		obs.Route{Pattern: "/debug/adapt", Handler: served.AdaptDebugHandler(), Desc: "adapt snapshot"},
	)
	routes = append(routes, flight.Routes(jr, incidentDir)...)
	srv, err := obs.StartServer(nil, "127.0.0.1:0", routes...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return "http://" + srv.Addr(), routes
}

func mustRules(t *testing.T, csv string) []flight.Rule {
	t.Helper()
	rules, err := flight.ParseRules(csv)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

// TestDebugHeaderSweep table-drives every mounted JSON debug route and
// asserts the response contract: 200, application/json, and no-store — no
// stale snapshots out of intermediary caches, no content sniffing.
func TestDebugHeaderSweep(t *testing.T) {
	base, _ := startFullDebugServer(t)
	jsonRoutes := []string{
		"/debug",
		"/debug/fleet",
		"/debug/engine",
		"/debug/adapt",
		"/debug/traces",
		"/debug/journal",
		"/debug/incidents",
		"/debug/vars",
		"/metrics.json",
		"/healthz",
	}
	for _, route := range jsonRoutes {
		t.Run(route, func(t *testing.T) {
			resp, err := http.Get(base + route)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
				t.Errorf("Cache-Control = %q, want no-store", cc)
			}
			if !json.Valid(body) {
				t.Errorf("body is not valid JSON: %.120s", body)
			}
		})
	}

	// The text-format metrics endpoint must also refuse caching.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("/metrics Cache-Control = %q, want no-store", cc)
	}
}

// TestDebugIndexListsAllRoutes asserts the /debug index enumerates every
// mounted route, each with a description.
func TestDebugIndexListsAllRoutes(t *testing.T) {
	base, extra := startFullDebugServer(t)
	resp, err := http.Get(base + "/debug")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var index struct {
		Routes []obs.RouteInfo `json:"routes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&index); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, r := range index.Routes {
		listed[r.Pattern] = r.Desc
	}
	// Every extra route mounted on the server plus the builtin bundle.
	want := []string{"/debug", "/metrics", "/metrics.json", "/healthz", "/debug/vars", "/debug/pprof/"}
	for _, r := range extra {
		want = append(want, r.Pattern)
	}
	for _, pattern := range want {
		desc, ok := listed[pattern]
		if !ok {
			t.Errorf("/debug index missing %s (have %v)", pattern, listed)
			continue
		}
		if desc == "" {
			t.Errorf("route %s listed without a description", pattern)
		}
	}
}

// TestDebugSnapshotSubcommand pulls a full snapshot from the live server via
// the CLI and checks the manifest plus a couple of pulled artifacts.
func TestDebugSnapshotSubcommand(t *testing.T) {
	base, _ := startFullDebugServer(t)
	addr := strings.TrimPrefix(base, "http://")
	dir := filepath.Join(t.TempDir(), "snap")
	var out strings.Builder
	if err := run([]string{"debug", "snapshot", "-addr", addr, "-out", dir}, &out); err != nil {
		t.Fatalf("snapshot failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"snapshot.json", "metrics.json", "debug-journal.json", "debug-fleet.json", "goroutines.txt"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("snapshot missing %s: %v", want, err)
		}
	}
	var manifest struct {
		Routes []struct {
			Pattern string `json:"pattern"`
			Err     string `json:"err"`
		} `json:"routes"`
	}
	b, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Routes) == 0 {
		t.Fatal("manifest lists no routes")
	}
	for _, r := range manifest.Routes {
		if r.Err != "" {
			t.Errorf("route %s failed during snapshot: %s", r.Pattern, r.Err)
		}
	}

	if err := run([]string{"debug"}, io.Discard); err == nil {
		t.Error("bare `debug` must error with usage")
	}
	if err := run([]string{"debug", "snapshot"}, io.Discard); err == nil {
		t.Error("snapshot without -addr must error")
	}
}
