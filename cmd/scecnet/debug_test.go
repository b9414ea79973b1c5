package main

import (
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/transport"
)

// debugServer is a Served adaptive fleet with every debug surface the
// binary can mount — fleet, engine, adapt, traces, journal, incidents — on
// one telemetry mux, served over HTTP and captured by a watchdog in-process.
type debugServer struct {
	base   string      // the served mux's base URL
	routes []obs.Route // the extra routes mounted on the mux
	wd     *flight.Watchdog
}

func startFullDebugServer(t *testing.T) debugServer {
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

	incidentDir := t.TempDir()
	jr := flight.Default()
	routes := append(traceRoutes(tr), servedRoutes(served)...)
	routes = append(routes, flight.Routes(jr, incidentDir)...)
	mux := obs.Default().Handler(routes...)

	// One captured incident so /debug/incidents has content to serve.
	jr.Publish(flight.KindShed, "debug-test", 1, 0)
	wd, err := flight.NewWatchdog(flight.Config{
		Dir:     incidentDir,
		Rules:   mustRules(t, "journal:shed>=1/10m"),
		Handler: mux,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wd.Capture("manual", "debug header sweep"); err != nil {
		t.Fatal(err)
	}

	srv, err := obs.StartServer(mux, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return debugServer{base: "http://" + srv.Addr(), routes: routes, wd: wd}
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
	base := startFullDebugServer(t).base
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
	ds := startFullDebugServer(t)
	resp, err := http.Get(ds.base + "/debug")
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
	for _, r := range ds.routes {
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
	addr := strings.TrimPrefix(startFullDebugServer(t).base, "http://")
	dir := filepath.Join(t.TempDir(), "snap")
	var out strings.Builder
	if err := run([]string{"debug", "snapshot", "-addr", addr, "-out", dir}, &out); err != nil {
		t.Fatalf("snapshot failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"snapshot.json", "metrics.json", "journal.json", "fleet.json", "pprof-goroutine.txt"} {
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

// TestIncidentBundleMatchesSnapshot captures one telemetry mux twice — in
// process through Watchdog.Capture, and over HTTP through `scecnet debug
// snapshot` — and asserts both write the same files, covering the live
// fleet, engine and adapt state as well as the journal, traces, metrics,
// goroutine dump and heap profile.
func TestIncidentBundleMatchesSnapshot(t *testing.T) {
	ds := startFullDebugServer(t)
	meta, err := ds.wd.Capture("manual", "bundle vs snapshot")
	if err != nil {
		t.Fatal(err)
	}
	bundle := slices.DeleteFunc(slices.Clone(meta.Files), func(f string) bool { return f == "meta.json" })

	dir := filepath.Join(t.TempDir(), "snap")
	if err := run([]string{"debug", "snapshot", "-addr", strings.TrimPrefix(ds.base, "http://"), "-out", dir}, io.Discard); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snap []string
	for _, e := range ents {
		if e.Name() != "snapshot.json" {
			snap = append(snap, e.Name())
		}
	}
	slices.Sort(bundle)
	if !slices.Equal(bundle, snap) {
		t.Fatalf("bundle files %v differ from snapshot files %v", bundle, snap)
	}
	for _, want := range []string{"fleet.json", "engine.json", "adapt.json", "journal.json", "traces.json",
		"metrics.json", "pprof-goroutine.txt", "pprof-heap.bin"} {
		if !slices.Contains(bundle, want) {
			t.Errorf("capture lacks %s: %v", want, bundle)
		}
	}
}
