// Command scecnet runs the SCEC protocol over real TCP connections.
//
// Roles:
//
//	scecnet device -addr 127.0.0.1:7001
//	    run one edge device (stores a coded block, answers compute requests)
//
//	scecnet drive -devices 127.0.0.1:7001,127.0.0.1:7002,... -m 100 -l 32
//	    act as cloud + user against a running fleet: allocate, encode,
//	    distribute the blocks, send x, gather, decode, verify
//
//	scecnet demo -m 100 -l 32 -k 8
//	    start an ephemeral loopback fleet in-process and drive it end to end
//
//	scecnet fleet -m 100 -l 32 -replicas 2 -standbys 1 -inject-faults
//	    start a replicated loopback fleet, stream queries through the
//	    fault-tolerant session, and (optionally) kill one replica of every
//	    coded block mid-stream to watch failover and self-repair
//
//	scecnet debug snapshot -addr 127.0.0.1:9090 -out DIR
//	    pull every debug/metrics route a running scecnet process serves
//	    (discovered from its /debug index) into a local directory for
//	    offline triage — metrics, journal, traces, incidents, goroutines
//
//	scecnet load -rates 50,100,200 -slo p99<=250ms@100
//	    heavy-traffic SLO harness: open-loop, coordinated-omission-safe
//	    offered-load sweeps against a 3-device real-socket fleet and a
//	    thousand-device virtual-clock simulation with churn, writing the
//	    latency-vs-load curves, saturation knees, and SLO verdicts to
//	    results/load.json + load.md (non-zero exit on any SLO violation);
//	    -metrics-addr adds a live /debug/slo route
//
// Every role accepts -metrics-addr to serve the telemetry bundle
// (/metrics, /metrics.json, /healthz, /debug/pprof/*, /debug/vars) while it
// runs; drive and demo print a per-stage timing table on completion, and
// device/drive accept -timeout to override the 10s round-trip bound.
//
// Tracing: drive, demo, and fleet accept -trace-export FILE to record one
// distributed trace per query (engine, coalescer, fleet racing/hedging,
// transport round trips, and device-side compute spans stitched under one
// trace ID) and write the JSON export on completion; with -metrics-addr the
// live traces are also served at /debug/traces and /debug/traces/{id}, and
// the fleet role adds /debug/fleet and /debug/engine. A device started with
// -trace records server-side spans and returns them to traced clients.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/transport"
	"github.com/scec/scec/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scecnet:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: scecnet <device|drive|demo|fleet|load|debug> [flags]")
	}
	switch args[0] {
	case "device":
		return runDevice(args[1:], out)
	case "drive":
		return runDrive(args[1:], out)
	case "demo":
		return runDemo(args[1:], out)
	case "fleet":
		return runFleet(args[1:], out)
	case "load":
		return runLoad(args[1:], out)
	case "debug":
		return runDebug(args[1:], out)
	default:
		return fmt.Errorf("unknown role %q (want device, drive, demo, fleet, load, or debug)", args[0])
	}
}

// startMetrics serves the telemetry bundle on addr when non-empty, with any
// extra debug routes mounted on the same mux; the returned closer is nil
// when no server was requested.
func startMetrics(out io.Writer, addr string, extra ...obs.Route) (io.Closer, error) {
	if addr == "" {
		return nil, nil
	}
	srv, err := obs.StartServer(nil, addr, extra...)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "serving telemetry on http://%s/metrics (also /healthz, /debug/pprof/, /debug/vars)\n", srv.Addr())
	return srv, nil
}

// traceRoutes mounts the tracer's waterfall endpoints; an is optional.
func traceRoutes(t *trace.Tracer, an *trace.Stragglers) []obs.Route {
	h := trace.DebugHandler(t, an)
	return []obs.Route{
		{Pattern: "/debug/traces", Handler: h, Desc: "retained distributed traces, most recent first"},
		{Pattern: "/debug/traces/{id}", Handler: h, Desc: "one trace's span waterfall by trace ID"},
	}
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
		routes = traceRoutes(tr, nil)
	}
	if *metricsAddr != "" {
		srv, err := obs.StartServerContext(ctx, nil, *metricsAddr, routes...)
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

func runDrive(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scecnet drive", flag.ContinueOnError)
	var (
		devices     = fs.String("devices", "", "comma-separated device addresses, cheapest first")
		m           = fs.Int("m", 100, "rows of the confidential matrix A")
		l           = fs.Int("l", 32, "columns of A")
		t           = fs.Int("t", 1, "collusion threshold: t >= 2 deploys the Cauchy-masked coding tier secure against t colluding devices")
		batch       = fs.Int("batch", 0, "additionally verify a batch A·X with this many columns")
		seed        = fs.Uint64("seed", 1, "random seed")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /healthz, and /debug endpoints on this address")
		timeout     = fs.Duration("timeout", transport.DefaultTimeout, "per-round-trip bound for store and compute requests")
		traceFile   = fs.String("trace-export", "", "record a distributed trace per query and write the JSON export here on completion")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := splitAddrs(*devices)
	if len(addrs) < 2 {
		return fmt.Errorf("need at least two device addresses, got %d", len(addrs))
	}
	var tr *trace.Tracer
	var routes []obs.Route
	if *traceFile != "" {
		tr = trace.New(trace.Options{Service: "scecnet-drive"})
		routes = traceRoutes(tr, nil)
	}
	ms, err := startMetrics(out, *metricsAddr, routes...)
	if err != nil {
		return err
	}
	if ms != nil {
		defer ms.Close()
	}
	if err := drive(out, addrs, *m, *l, *batch, *t, *seed, *timeout, tr); err != nil {
		return err
	}
	return exportTraces(out, tr, *traceFile)
}

func runDemo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scecnet demo", flag.ContinueOnError)
	var (
		m           = fs.Int("m", 100, "rows of the confidential matrix A")
		l           = fs.Int("l", 32, "columns of A")
		k           = fs.Int("k", 8, "devices to launch on loopback")
		t           = fs.Int("t", 1, "collusion threshold: t >= 2 deploys the Cauchy-masked coding tier secure against t colluding devices")
		batch       = fs.Int("batch", 4, "additionally verify a batch A·X with this many columns")
		seed        = fs.Uint64("seed", 1, "random seed")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /healthz, and /debug endpoints on this address")
		timeout     = fs.Duration("timeout", transport.DefaultTimeout, "per-round-trip bound for store and compute requests")
		traceFile   = fs.String("trace-export", "", "record a distributed trace per query and write the JSON export here on completion")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tr, devTr *trace.Tracer
	var routes []obs.Route
	if *traceFile != "" {
		tr = trace.New(trace.Options{Service: "scecnet-demo"})
		// The loopback devices get their own tracer so the demo exercises
		// the real cross-process span adoption path.
		devTr = trace.New(trace.Options{Service: "scecnet-device"})
		routes = traceRoutes(tr, nil)
	}
	ms, err := startMetrics(out, *metricsAddr, routes...)
	if err != nil {
		return err
	}
	if ms != nil {
		defer ms.Close()
	}
	f := scec.PrimeField()
	addrs := make([]string, *k)
	for j := 0; j < *k; j++ {
		srv, err := transport.NewDeviceServerOptions[uint64](f, "127.0.0.1:0", transport.Options{Timeout: *timeout, Tracer: devTr})
		if err != nil {
			return err
		}
		defer srv.Close()
		addrs[j] = srv.Addr()
	}
	fmt.Fprintf(out, "launched %d loopback devices\n", *k)
	if err := drive(out, addrs, *m, *l, *batch, *t, *seed, *timeout, tr); err != nil {
		return err
	}
	return exportTraces(out, tr, *traceFile)
}

// drive plays cloud + user against a running fleet: the fleet's unit costs
// are sampled (a real deployment would read device price sheets), the
// cheapest plan.I devices are provisioned, and one multiplication is
// verified end to end. Completion prints the per-stage timing table. It
// serves through scec.Serve with one replica per block — the path
// production and the benchmark use. A non-nil tracer records one trace per
// query; the transport layer carries it to the devices and adopts their
// server-side spans back.
func drive(out io.Writer, addrs []string, m, l, batch, t int, seed uint64, timeout time.Duration, tr *trace.Tracer) error {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(seed, 0xd21fe))
	in := workload.Instance(rng, m, len(addrs), workload.Uniform{Max: 5})

	a := scec.RandomMatrix(f, rng, m, l)
	var opts []scec.DeployOption[uint64]
	if t >= 2 {
		opts = append(opts, scec.WithCollusion[uint64](t))
	}
	dep, err := scec.Deploy(f, a, in.Costs, rng, opts...)
	if err != nil {
		return err
	}
	cfg := scec.FleetConfig{
		Replicas:      make([][]string, dep.Devices()),
		RPCTimeout:    timeout,
		ProbeInterval: -1,
	}
	// The plan's assignments are cheapest-first device indexes into addrs.
	for j, as := range dep.Plan.Assignments {
		cfg.Replicas[j] = []string{addrs[as.Device]}
	}
	fmt.Fprintf(out, "plan: %s r=%d t=%d, %d of %d devices selected, cost %.2f\n",
		dep.Plan.Algorithm, dep.Plan.R, dep.Code.T(), dep.Devices(), len(addrs), dep.Cost())

	served, err := scec.Serve(dep, cfg, scec.WithTracing[uint64](tr))
	if err != nil {
		return fmt.Errorf("distribute: %w", err)
	}
	defer served.Close()
	fmt.Fprintf(out, "cloud distributed %d coded rows across the fleet\n", m+dep.Plan.R)

	x := scec.RandomVector(f, rng, l)
	got, err := served.MulVec(x)
	if err != nil {
		return fmt.Errorf("gather: %w", err)
	}
	want := scec.MulVec(f, a, x)
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("verification failed at entry %d", i)
		}
	}
	fmt.Fprintf(out, "user decoded A·x over TCP and verified all %d entries\n", len(got))

	if batch > 0 {
		xm := scec.RandomMatrix(f, rng, l, batch)
		gotM, err := served.MulMat(xm)
		if err != nil {
			return fmt.Errorf("batch gather: %w", err)
		}
		if !scec.MatrixEqual(f, gotM, scec.Mul(f, a, xm)) {
			return fmt.Errorf("batch verification failed")
		}
		fmt.Fprintf(out, "user decoded the batch A·X (%d columns) over TCP and verified it\n", batch)
	}
	return writeStageTable(out)
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
