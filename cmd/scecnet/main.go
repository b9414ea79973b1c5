// Command scecnet runs the SCEC protocol over real TCP connections.
//
// Roles:
//
//	scecnet device -addr 127.0.0.1:7001
//	    run one edge device (stores a coded block, answers compute requests)
//
//	scecnet fleet -m 100 -l 32 -replicas 2 -standbys 1 -inject-faults
//	    act as cloud + user: allocate, encode, launch a replicated loopback
//	    fleet, stream queries through the fault-tolerant session, and verify
//	    every decoded A·x; -inject-faults kills one replica of every coded
//	    block mid-stream to watch failover and self-repair, and -batch N
//	    also verifies one A·X of N columns (the smallest end-to-end run is
//	    -replicas 1 -standbys 0 -queries 1 -batch 4)
//
//	scecnet fleet -devices 127.0.0.1:7001,127.0.0.1:7002,... -m 100 -l 32 -batch 3
//	    the same against running devices: the listed addresses are the
//	    candidate pool and each device the plan selects hosts one block
//
//	scecnet debug snapshot -addr 127.0.0.1:9090 -out DIR
//	    capture a running scecnet process's debug surface into a local
//	    directory for offline triage: every route its /debug index marks as
//	    captured (metrics, fleet, engine, adapt, journal, traces, goroutine
//	    dump, heap profile), the same files an incident bundle holds
//
//	scecnet load -rates 50,100,200 -slo p99<=250ms@100
//	    real-socket SLO gate: an open-loop, coordinated-omission-safe
//	    offered-load sweep against a 3-device loopback fleet, printing the
//	    latency-vs-load curve, saturation knee, and SLO verdicts (non-zero
//	    exit on any SLO violation; no report file, since wall-clock numbers
//	    move run to run — the reproducible 1000-device virtual sweep is
//	    `experiments -fig load`); the sweep in flight shows on /metrics as
//	    scec_load_offered_qps, scec_load_inflight and scec_load_requests_total
//
// Every role accepts -metrics-addr to serve the telemetry bundle
// (/metrics, /metrics.json, /healthz, /debug/pprof/*, /debug/vars) while it
// runs; fleet and load add /debug/fleet (blocks, breakers and every device's
// straggler record) and /debug/engine. fleet prints a per-stage timing table
// on completion, and device, fleet and load accept -timeout to override the
// 10s round-trip bound. Without -seed the deploying roles draw the masking
// rows from crypto/rand.
//
// Tracing: fleet accepts -trace-export FILE to record one distributed trace
// per query (engine, coalescer, fleet racing/hedging, transport round trips,
// and device-side compute spans stitched under one trace ID) and write the
// JSON export on completion; with -metrics-addr the live traces are also
// served at /debug/traces and /debug/traces/{id}. A device started with
// -trace records server-side spans and returns them to traced clients.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scecnet:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: scecnet <device|fleet|load|debug> [flags]")
	}
	switch args[0] {
	case "device":
		return runDevice(args[1:], out)
	case "fleet":
		return runFleet(args[1:], out)
	case "load":
		return runLoad(args[1:], out)
	case "debug":
		return runDebug(args[1:], out)
	default:
		return fmt.Errorf("unknown role %q (want device, fleet, load, or debug)", args[0])
	}
}

// startMetrics serves the telemetry mux h on addr when addr is non-empty;
// the returned closer is nil when no server was requested.
func startMetrics(out io.Writer, addr string, h http.Handler) (io.Closer, error) {
	if addr == "" {
		return nil, nil
	}
	srv, err := obs.StartServer(h, addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "serving telemetry on http://%s/metrics (also /healthz, /debug/pprof/, /debug/vars)\n", srv.Addr())
	return srv, nil
}

// traceRoutes mounts the tracer's waterfall endpoints; a capture takes
// every retained trace with its spans.
func traceRoutes(t *trace.Tracer) []obs.Route {
	h := trace.DebugHandler(t)
	return []obs.Route{
		{Pattern: "/debug/traces", Handler: h, Desc: "retained distributed traces, most recent first",
			Capture: "/debug/traces?spans=1&limit=0"},
		{Pattern: "/debug/traces/{id}", Handler: h, Desc: "one trace's span waterfall by trace ID"},
	}
}

// servedRoutes mounts a served deployment's live introspection:
// /debug/fleet, /debug/engine, and /debug/adapt when its control plane runs.
func servedRoutes(s *scec.Served[uint64]) []obs.Route {
	routes := []obs.Route{
		{Pattern: "/debug/fleet", Handler: s.FleetDebugHandler(), Capture: "/debug/fleet",
			Desc: "fleet session snapshot: blocks, replicas, breakers, standbys, straggler records"},
		engineRoute(s),
	}
	if s.Adaptive() != nil {
		routes = append(routes, obs.Route{Pattern: "/debug/adapt", Handler: s.AdaptDebugHandler(), Capture: "/debug/adapt",
			Desc: "adaptive control plane: learned factors, decisions, migrations"})
	}
	return routes
}

// engineRoute mounts a deployment's engine dispatch snapshot.
func engineRoute(d *scec.Deployment[uint64]) obs.Route {
	return obs.Route{Pattern: "/debug/engine", Handler: d.EngineDebugHandler(), Capture: "/debug/engine",
		Desc: "engine dispatch and coalescer snapshot"}
}

// exportTraces writes the tracer's retained traces to path on completion.
func exportTraces(out io.Writer, t *trace.Tracer, path string) error {
	if t == nil || path == "" {
		return nil
	}
	if err := t.WriteFile(path); err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	_, _, _, retained := t.Stats()
	fmt.Fprintf(out, "exported %d retained spans to %s\n", retained, path)
	return nil
}

// writeStageTable prints the per-stage timing table when any stage ran.
func writeStageTable(out io.Writer) error {
	fmt.Fprintln(out, "stage timings:")
	return obs.WriteStageTable(out, nil)
}

func runDevice(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scecnet device", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:0", "listen address")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /healthz, and /debug endpoints on this address")
		timeout     = fs.Duration("timeout", transport.DefaultTimeout, "per-request exchange bound")
		traced      = fs.Bool("trace", false, "record server-side spans, return them to traced clients, and serve /debug/traces")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The signal context drives both the telemetry server's graceful
	// shutdown and the main wait.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var tr *trace.Tracer
	var routes []obs.Route
	if *traced {
		tr = trace.New(trace.Options{Service: "scecnet-device"})
		routes = traceRoutes(tr)
	}
	if *metricsAddr != "" {
		srv, err := obs.StartServerContext(ctx, obs.Default().Handler(routes...), *metricsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "serving telemetry on http://%s/metrics (also /healthz, /debug/pprof/, /debug/vars)\n", srv.Addr())
	}
	srv, err := transport.NewDeviceServerOptions[uint64](scec.PrimeField(), *addr, transport.Options{Timeout: *timeout, Tracer: tr})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "edge device listening on %s (ctrl-c to stop)\n", srv.Addr())
	<-ctx.Done()
	return srv.Close()
}

func splitAddrs(csv string) []string {
	var addrs []string
	for _, a := range strings.Split(csv, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	return addrs
}

// flagsSet returns the names of the flags given on the command line.
func flagsSet(fs *flag.FlagSet) map[string]bool {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set
}

// maskRNG is the rng Deploy draws the masking rows R from: the seeded
// workload stream when -seed was given, so the run reproduces bit for bit,
// and nil otherwise, so Deploy keys R from crypto/rand. The -seed default is
// public; R drawn from it would let anyone regenerate R and unmask every
// coded block.
func maskRNG(fs *flag.FlagSet, rng *rand.Rand) *rand.Rand {
	if flagsSet(fs)["seed"] {
		return rng
	}
	return nil
}
