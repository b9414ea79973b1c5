package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/loadgen"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/transport"
)

// runLoad is the real-socket SLO gate: an open-loop, coordinated-omission-
// safe offered-load sweep against a loopback fleet of exactly three devices.
// It prints per-step p50/p99/p999, the detected saturation knee and the
// declared-SLO verdicts, and any SLO violation makes the command exit
// non-zero, which is what lets `make load-check` gate regressions. Its
// wall-clock numbers move on every run, so it writes no report file; the
// reproducible virtual-clock sweep is `experiments -fig load`.
func runLoad(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scecnet load", flag.ContinueOnError)
	var (
		m           = fs.Int("m", 40, "rows of the confidential matrix A (even, so uniform costs select exactly 3 devices)")
		l           = fs.Int("l", 64, "columns of A")
		replicas    = fs.Int("replicas", 1, "replicas per coded block in the real-socket fleet")
		rates       = fs.String("rates", "50,100,200", "comma-separated offered-load steps (QPS) for the fleet sweep")
		stepReqs    = fs.Int("step-requests", 0, "requests per sweep step (0 derives from -step-duration)")
		stepDur     = fs.Duration("step-duration", 2*time.Second, "nominal step length when -step-requests is 0")
		arrivalSpec = fs.String("arrival", "poisson", "arrival schedule: poisson, uniform, or bursty[:FxL]")
		seed        = fs.Uint64("seed", 1, "workload and arrival seed; the masking rows R come from it only when -seed is given, otherwise from crypto/rand")
		timeout     = fs.Duration("timeout", transport.DefaultTimeout, "per-request deadline")
		maxInFlight = fs.Int("max-inflight", 0, "outstanding-request backstop (0 for the generator default)")
		sloSpec     = fs.String("slo", "", "comma-separated SLOs for the fleet sweep, e.g. p99<=50ms@100")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /debug/engine and /debug/fleet on this address while the sweep runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	arrival, err := loadgen.ParseArrival(*arrivalSpec)
	if err != nil {
		return err
	}
	fleetRates, err := loadgen.ParseRates(*rates)
	if err != nil {
		return err
	}
	fleetSLOs, err := loadgen.ParseSLOs(*sloSpec)
	if err != nil {
		return err
	}
	if *m%2 != 0 || *m <= 0 {
		return fmt.Errorf("-m must be positive and even (uniform costs then yield r=m/2 and a 3-device fleet), got %d", *m)
	}

	// With k=3 candidates at uniform unit cost, TA1's optimum is r=m/2, so
	// i=⌈(m+r)/r⌉=3: every candidate serves, deterministically.
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(*seed, 0x10ad))
	a := scec.RandomMatrix(f, rng, *m, *l)
	dep, err := scec.Deploy(f, a, []float64{1, 1, 1}, maskRNG(fs, rng))
	if err != nil {
		return err
	}
	defer dep.Close()
	if dep.Devices() != 3 {
		return fmt.Errorf("expected the uniform-cost plan to select 3 devices, got %d", dep.Devices())
	}
	cfg := scec.FleetConfig{
		Replicas:      make([][]string, dep.Devices()),
		RPCTimeout:    *timeout,
		ProbeInterval: -1,
	}
	for j := range cfg.Replicas {
		for range max(*replicas, 1) {
			srv, err := transport.NewDeviceServerOptions[uint64](f, "127.0.0.1:0", transport.Options{Timeout: *timeout})
			if err != nil {
				return err
			}
			defer srv.Close()
			cfg.Replicas[j] = append(cfg.Replicas[j], srv.Addr())
		}
	}
	served, err := scec.Serve(dep, cfg)
	if err != nil {
		return err
	}
	defer served.Close()
	fmt.Fprintf(out, "fleet: 3 real-socket devices (%d replica(s) per block), m=%d l=%d r=%d\n",
		max(*replicas, 1), *m, *l, dep.Plan.R)

	ms, err := startMetrics(out, *metricsAddr, obs.Default().Handler(servedRoutes(served)...))
	if err != nil {
		return err
	}
	if ms != nil {
		defer ms.Close()
	}

	fleetScenario := loadgen.Scenario{
		Name:    "fleet-3dev",
		Backend: "fleet",
		Clock:   "wall",
		Arrival: arrival.Name(),
		Devices: 3,
	}
	x := scec.RandomVector(f, rng, *l)
	fmt.Fprintf(out, "sweeping fleet at %s QPS (%s arrivals, open loop)...\n", *rates, arrival.Name())
	steps, err := loadgen.Sweep(context.Background(), served.LoadTarget(x), loadgen.SweepOptions{
		Rates:           fleetRates,
		RequestsPerStep: *stepReqs,
		StepDuration:    *stepDur,
		Arrival:         arrival,
		Seed:            *seed,
		Timeout:         *timeout,
		MaxInFlight:     *maxInFlight,
	})
	if err != nil {
		return err
	}
	fleetScenario.Steps = steps
	fleetScenario.KneeQPS = loadgen.DetectKnee(steps)
	sloErr := fleetScenario.CheckSLOs(fleetSLOs)
	fleetScenario.WriteText(out)
	return sloErr
}
