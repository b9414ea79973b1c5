package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/faultproxy"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/transport"
	"github.com/scec/scec/internal/workload"
)

// runFleet is the cloud + user role. It plans and encodes A, serves it on a
// replicated loopback fleet (or, with -devices, on running external devices),
// streams queries through the fault-tolerant session and verifies every
// answer. With -inject-faults it kills the first replica of every coded block
// mid-stream to demonstrate that hedging, failover, breakers, and standby
// self-repair keep every answer exact.
func runFleet(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scecnet fleet", flag.ContinueOnError)
	var (
		m            = fs.Int("m", 100, "rows of the confidential matrix A")
		l            = fs.Int("l", 32, "columns of A")
		k            = fs.Int("k", 8, "candidate devices offered to the allocator")
		devices      = fs.String("devices", "", "comma-separated addresses of running devices to serve on instead of a loopback fleet; they are the candidate pool, and each selected device hosts one block")
		replicas     = fs.Int("replicas", 2, "replicas per coded block")
		standbys     = fs.Int("standbys", 1, "warm standby devices for self-repair")
		queries      = fs.Int("queries", 8, "MulVec queries to stream through the session")
		batch        = fs.Int("batch", 0, "after the query stream, verify one A·X with this many columns through MulMat (0 skips it)")
		injectFaults = fs.Bool("inject-faults", false, "kill the first replica of every block mid-stream")
		tFlag        = fs.Int("t", 1, "collusion threshold: t >= 2 deploys the Cauchy-masked coding tier secure against t colluding devices")
		seed         = fs.Uint64("seed", 1, "workload seed (costs, A, x); the masking rows R come from it only when -seed is given, otherwise from crypto/rand")
		metricsAddr  = fs.String("metrics-addr", "", "serve /metrics, /healthz, and /debug endpoints on this address")
		timeout      = fs.Duration("timeout", transport.DefaultTimeout, "per-round-trip bound for store and compute requests")
		coalesceMax  = fs.Int("coalesce-max", 0, "max queries per group-commit round (queries that arrive while a round is in flight share the next one; 0 for the engine default); setting it runs the query stream concurrently")
		traceFile    = fs.String("trace-export", "", "record a distributed trace per query and write the JSON export here on completion")
		adaptive     = fs.Bool("adaptive", false, "run the closed-loop adaptive control plane: learn per-device costs from live traffic, re-plan with TA2, and migrate blocks without dropping queries")
		replanEvery  = fs.Duration("replan-every", 500*time.Millisecond, "adaptive control period (with -adaptive)")
		incidentDir  = fs.String("incident-dir", "", "arm the flight-recorder watchdog: evaluate -watch rules against the event journal and write incident bundles under this directory (implies tracing)")
		watchRules   = fs.String("watch", "journal:breaker-open>=1/30s", "comma-separated watchdog trigger rules (with -incident-dir)")
		incidentSum  = fs.String("incident-summary", "", "validate the captured incident bundle and write a JSON summary to this file; non-zero exit when the bundle is incomplete (with -incident-dir)")
		injectOne    = fs.Bool("inject-one", false, "kill every replica of coded block 0 mid-stream: a full single-block outage only a rehost can cure")
		noRepair     = fs.Bool("no-repair", false, "disable standby self-repair, so outage recovery must come from the adaptive control plane")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replicas < 1 || *standbys < 0 {
		return fmt.Errorf("need -replicas >= 1 and -standbys >= 0")
	}
	if *tFlag < 1 {
		return fmt.Errorf("-t %d: the collusion threshold must be at least 1", *tFlag)
	}
	addrs := splitAddrs(*devices)
	if *devices != "" {
		if err := checkExternal(fs, addrs); err != nil {
			return err
		}
		*k = len(addrs)
	}
	if *injectOne && *injectFaults {
		return fmt.Errorf("-inject-one and -inject-faults are mutually exclusive")
	}
	// -coalesce-max runs the query stream concurrently: group commit only
	// merges queries that are in flight together.
	coalesce := *coalesceMax > 0
	if *injectOne && coalesce {
		return fmt.Errorf("-inject-one needs the sequential query stream (drop -coalesce-max)")
	}
	if *incidentSum != "" && *incidentDir == "" {
		return fmt.Errorf("-incident-summary needs -incident-dir")
	}
	var serveOpts []scec.DeployOption[uint64]
	if coalesce {
		serveOpts = append(serveOpts, scec.WithCoalescing[uint64](0, *coalesceMax))
	}
	var tr, devTr *trace.Tracer
	if *traceFile != "" || *incidentDir != "" {
		// An armed flight recorder needs live traces for its bundles even
		// without -trace-export.
		tr = trace.New(trace.Options{Service: "scecnet-fleet"})
		// Devices trace into their own buffer; the session adopts their
		// compute spans from the response frames, as over a real network.
		devTr = trace.New(trace.Options{Service: "scecnet-device"})
		serveOpts = append(serveOpts, scec.WithTracing[uint64](tr))
	}
	// The telemetry mux is built after the session is up so /debug/fleet
	// and /debug/engine can snapshot the live runtime.

	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(*seed, 0xf1ee7))
	in := workload.Instance(rng, *m, *k, workload.Uniform{Max: 5})
	a := scec.RandomMatrix(f, rng, *m, *l)
	var deployOpts []scec.DeployOption[uint64]
	if *tFlag >= 2 {
		deployOpts = append(deployOpts, scec.WithCollusion[uint64](*tFlag))
	}
	dep, err := scec.Deploy(f, a, in.Costs, maskRNG(fs, rng), deployOpts...)
	if err != nil {
		return err
	}
	defer dep.Close()
	fmt.Fprintf(out, "plan: %s r=%d t=%d, %d coded blocks, cost %.2f\n",
		dep.Plan.Algorithm, dep.Plan.R, dep.Code.T(), dep.Devices(), dep.Cost())

	// Physical fleet: replicas per block plus the standby pool, every
	// device behind a fault proxy so -inject-faults can kill replicas on
	// command.
	newProxied := func() (*faultproxy.Proxy, error) {
		srv, err := transport.NewDeviceServerOptions[uint64](f, "127.0.0.1:0", transport.Options{Timeout: *timeout, Tracer: devTr})
		if err != nil {
			return nil, err
		}
		p, err := faultproxy.New(srv.Addr())
		if err != nil {
			_ = srv.Close()
			return nil, err
		}
		return p, nil
	}
	proxies := make([][]*faultproxy.Proxy, dep.Devices())
	cfg := scec.FleetConfig{
		Replicas:   make([][]string, dep.Devices()),
		RPCTimeout: *timeout,
		Tracer:     tr,
		// Demo-paced health policy: notice a dead replica within a few
		// hundred milliseconds and keep it quarantined for the whole run.
		ProbeInterval:    150 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
		DisableRepair:    *noRepair,
	}
	if len(addrs) > 0 {
		// The plan's assignments are cheapest-first indexes into addrs.
		for j, as := range dep.Plan.Assignments {
			cfg.Replicas[j] = []string{addrs[as.Device]}
		}
		fmt.Fprintf(out, "serving on %d of %d external devices (one replica per block)\n", dep.Devices(), len(addrs))
	} else {
		for j := range proxies {
			for range *replicas {
				p, err := newProxied()
				if err != nil {
					return err
				}
				defer p.Close()
				proxies[j] = append(proxies[j], p)
				cfg.Replicas[j] = append(cfg.Replicas[j], p.Addr())
			}
		}
		for range *standbys {
			p, err := newProxied()
			if err != nil {
				return err
			}
			defer p.Close()
			cfg.Standbys = append(cfg.Standbys, p.Addr())
		}
		fmt.Fprintf(out, "launched %d loopback devices (%d replicas per block + %d standbys)\n",
			dep.Devices()**replicas+*standbys, *replicas, *standbys)
	}

	if *adaptive {
		serveOpts = append(serveOpts, scec.WithAdaptive[uint64](scec.AdaptiveConfig{
			ReplanEvery: *replanEvery,
			Tracer:      tr,
		}))
	}
	served, err := scec.Serve(dep, cfg, serveOpts...)
	if err != nil {
		return err
	}
	defer served.Close()
	var outageAddrs []string
	injectNow := func() {
		for j := range proxies {
			proxies[j][0].SetMode(faultproxy.Drop)
		}
		fmt.Fprintf(out, "injected faults: killed the first replica of all %d blocks\n", dep.Devices())
	}
	if *injectOne {
		// A full outage of one block: every replica of block 0 dies, so
		// no failover target remains and recovery needs a rehost (standby
		// self-repair, or the adaptive control plane with -no-repair).
		outageAddrs = append(outageAddrs, cfg.Replicas[0]...)
		injectNow = func() {
			for _, p := range proxies[0] {
				p.SetMode(faultproxy.Drop)
			}
			fmt.Fprintf(out, "injected outage: killed all %d replica(s) of block 0\n", len(proxies[0]))
		}
	}

	// Telemetry + live introspection: /debug/engine, /debug/fleet and
	// /debug/adapt join /metrics and /debug/pprof on one mux; the tracer
	// adds /debug/traces, and the flight recorder adds /debug/journal (+
	// /debug/incidents when armed). The mux is served only with
	// -metrics-addr; an armed watchdog captures it in-process.
	var routes []obs.Route
	if tr != nil {
		routes = traceRoutes(tr)
	}
	routes = append(routes, servedRoutes(served)...)
	routes = append(routes, flight.Routes(flight.Default(), *incidentDir)...)
	mux := obs.Default().Handler(routes...)

	// An armed flight recorder evaluates the -watch rules against the event
	// journal and captures incident bundles while queries flow.
	var wd *flight.Watchdog
	if *incidentDir != "" {
		rules, err := flight.ParseRules(*watchRules)
		if err != nil {
			return err
		}
		wd, err = flight.NewWatchdog(flight.Config{Dir: *incidentDir, Rules: rules, Handler: mux})
		if err != nil {
			return err
		}
		wd.Start()
		defer wd.Stop()
		fmt.Fprintf(out, "flight recorder armed: rules %s, bundles under %s\n", *watchRules, *incidentDir)
	}

	ms, err := startMetrics(out, *metricsAddr, mux)
	if err != nil {
		return err
	}
	if ms != nil {
		defer ms.Close()
	}

	// The query RNG is not goroutine-safe, so inputs are drawn up front
	// whether the stream runs sequentially or concurrently.
	xs := make([][]uint64, *queries)
	wants := make([][]uint64, *queries)
	for q := range xs {
		xs[q] = scec.RandomVector(f, rng, *l)
		wants[q] = scec.MulVec(f, a, xs[q])
	}
	var xm *scec.Matrix[uint64]
	if *batch > 0 {
		xm = scec.RandomMatrix(f, rng, *l, *batch)
	}
	outageFailures := 0
	checkOne := func(q int, got []uint64, err error) error {
		if err != nil {
			if errors.Is(err, scec.ErrBlockUnavailable) {
				return fmt.Errorf("query %d: %w (raise -replicas or -standbys)", q, err)
			}
			return fmt.Errorf("query %d: %w", q, err)
		}
		for i := range got {
			if got[i] != wants[q][i] {
				return fmt.Errorf("query %d: verification failed at entry %d", q, i)
			}
		}
		return nil
	}
	if coalesce {
		// Coalescing only merges queries that are in flight together, so the
		// stream launches concurrently; faults are injected up front.
		if *injectFaults {
			injectNow()
		}
		results := make([][]uint64, *queries)
		errs := make([]error, *queries)
		var wg sync.WaitGroup
		for q := range xs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[q], errs[q] = served.MulVec(xs[q])
			}()
		}
		wg.Wait()
		for q := range results {
			if err := checkOne(q, results[q], errs[q]); err != nil {
				return err
			}
		}
	} else {
		faultAt := *queries / 2
		for q := 0; q < *queries; q++ {
			if (*injectFaults || *injectOne) && q == faultAt {
				injectNow()
			}
			got, err := served.MulVec(xs[q])
			if err != nil && *injectOne && q >= faultAt {
				// Block 0 has no live replica until a rehost lands; these
				// failures are the incident under demonstration.
				outageFailures++
				continue
			}
			if err := checkOne(q, got, err); err != nil {
				return err
			}
		}
	}
	if *injectOne {
		// Recovery proof: keep retrying one query until the fleet heals
		// (standby self-repair, or an adaptive rehost with -no-repair).
		deadline := time.Now().Add(20 * time.Second)
		var got []uint64
		var qerr error
		for {
			got, qerr = served.MulVec(xs[0])
			if qerr == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		if qerr != nil {
			return fmt.Errorf("block 0 never recovered from the injected outage: %w", qerr)
		}
		for i := range got {
			if got[i] != wants[0][i] {
				return fmt.Errorf("post-recovery verification failed at entry %d", i)
			}
		}
		fmt.Fprintf(out, "block 0 recovered: post-outage query verified exactly\n")
	}
	if outageFailures > 0 {
		fmt.Fprintf(out, "served %d queries; %d failed during the block-0 outage, all others verified exactly\n", *queries, outageFailures)
	} else {
		fmt.Fprintf(out, "served %d queries; every decoded A·x verified exactly\n", *queries)
	}

	if xm != nil {
		got, err := served.MulMat(xm)
		if err != nil {
			return fmt.Errorf("batch query: %w", err)
		}
		if !scec.MatrixEqual(f, got, scec.Mul(f, a, xm)) {
			return fmt.Errorf("batch verification failed")
		}
		fmt.Fprintf(out, "verified the batch A·X (%d columns) exactly\n", *batch)
	}

	if *injectFaults && *replicas > 1 && *standbys > 0 {
		// Give the prober a moment to open the dead replicas' breakers and
		// promote standbys, then show the repaired replica sets.
		deadline := time.Now().Add(5 * time.Second)
		for served.Standbys() > 0 && time.Now().Before(deadline) {
			time.Sleep(50 * time.Millisecond)
		}
		for j := 0; j < dep.Devices(); j++ {
			fmt.Fprintf(out, "block %d: %d replicas after self-repair\n", j, served.ReplicaCount(j))
		}
	}
	if err := writeFleetSummary(out); err != nil {
		return err
	}
	if *adaptive {
		replans, adopts, moved := served.Adaptive().Stats()
		fmt.Fprintf(out, "adaptive summary: replans=%d adopts=%d blocksMoved=%d\n", replans, adopts, moved)
	}
	if wd != nil {
		// The trigger rule may only now be satisfied (recovery events land
		// late); force checks until a bundle exists or clearly never will.
		deadline := time.Now().Add(10 * time.Second)
		for len(wd.Incidents()) == 0 && time.Now().Before(deadline) {
			if _, err := wd.CheckNow(); err != nil {
				return err
			}
			time.Sleep(100 * time.Millisecond)
		}
		incidents := wd.Incidents()
		fmt.Fprintf(out, "flight recorder: %d incident bundle(s) under %s\n", len(incidents), *incidentDir)
		if *incidentSum != "" {
			if err := writeIncidentSummary(out, *incidentSum, *incidentDir, incidents, outageAddrs, *adaptive, served); err != nil {
				return err
			}
		}
	}
	if err := writeEngineSummary(out); err != nil {
		return err
	}
	if err := exportTraces(out, tr, *traceFile); err != nil {
		return err
	}
	return writeStageTable(out)
}

// writeEngineSummary prints the execution engine's dispatch counters and —
// when coalescing ran — the merged-round accounting from the default
// registry. It names only the backends that dispatched: the deployment's
// local bind mints zero-valued series before Serve re-binds it to the fleet.
func writeEngineSummary(out io.Writer) error {
	vec, mat := 0.0, 0.0
	rounds, callers := int64(0), 0.0
	backends := map[string]bool{}
	for _, fam := range obs.Default().Snapshot().Metrics {
		switch fam.Name {
		case obs.MetricEngineDispatchTotal:
			for _, sr := range fam.Series {
				if sr.Labels["kind"] == "vec" {
					vec += sr.Value
				} else {
					mat += sr.Value
				}
				if b := sr.Labels["backend"]; b != "" && sr.Value > 0 {
					backends[b] = true
				}
			}
		case obs.MetricEngineCoalescedBatchSize:
			for _, sr := range fam.Series {
				rounds += sr.Count
				callers += sr.Sum
			}
		}
	}
	names := make([]string, 0, len(backends))
	for b := range backends {
		names = append(names, b)
	}
	sort.Strings(names)
	if _, err := fmt.Fprintf(out, "engine summary: backends=%s dispatches vec=%.0f mat=%.0f\n",
		strings.Join(names, ","), vec, mat); err != nil {
		return err
	}
	if rounds > 0 {
		_, err := fmt.Fprintf(out, "coalescing: %d rounds served %.0f callers (mean batch %.2f)\n",
			rounds, callers, callers/float64(rounds))
		return err
	}
	return nil
}

// writeFleetSummary prints the session's fault-tolerance counters from the
// default registry.
func writeFleetSummary(out io.Writer) error {
	totals := map[string]float64{}
	for _, fam := range obs.Default().Snapshot().Metrics {
		switch fam.Name {
		case obs.MetricFleetQueriesTotal, obs.MetricFleetHedgesTotal,
			obs.MetricFleetRetriesTotal, obs.MetricFleetRepairsTotal:
			for _, sr := range fam.Series {
				totals[fam.Name] += sr.Value
			}
		}
	}
	_, err := fmt.Fprintf(out, "fleet summary: queries=%.0f hedges=%.0f retries=%.0f repairs=%.0f\n",
		totals[obs.MetricFleetQueriesTotal], totals[obs.MetricFleetHedgesTotal],
		totals[obs.MetricFleetRetriesTotal], totals[obs.MetricFleetRepairsTotal])
	return err
}

// checkExternal validates -devices: at least two addresses, and no flag that
// only shapes a launched loopback fleet. Each conflicting flag is an error
// naming it rather than being silently ignored.
func checkExternal(fs *flag.FlagSet, addrs []string) error {
	if len(addrs) < 2 {
		return fmt.Errorf("-devices: need at least two device addresses, got %d", len(addrs))
	}
	set := flagsSet(fs)
	for _, c := range []struct{ flag, why string }{
		{"k", "the listed addresses are the candidate pool"},
		{"replicas", "each selected device hosts the one replica of its block"},
		{"standbys", "external devices get no standby pool"},
		{"inject-faults", "external devices sit behind no fault proxy"},
		{"inject-one", "external devices sit behind no fault proxy"},
	} {
		if set[c.flag] {
			return fmt.Errorf("-%s does not apply with -devices: %s", c.flag, c.why)
		}
	}
	return nil
}
