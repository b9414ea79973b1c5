package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/loadgen"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/transport"
)

// runLoad is the heavy-traffic SLO harness: an open-loop, coordinated-
// omission-safe offered-load sweep against (1) a real-socket loopback fleet
// of exactly three devices and (2) a virtual-clock simulation of thousands
// of devices with churn. Both scenarios land in one results/load.json +
// load.md report with per-step p50/p99/p999, the detected saturation knee,
// and declared-SLO verdicts; any SLO violation makes the command exit
// non-zero, which is what lets `make load-check` gate regressions.
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
		simDevices  = fs.Int("sim-devices", 1000, "virtual fleet size for the simulated scenario (0 skips it)")
		simRates    = fs.String("sim-rates", "500,1000,2000,4000", "offered-load steps (QPS) for the virtual sweep")
		simChurn    = fs.Duration("sim-churn", 200*time.Millisecond, "mean virtual interval between churn events (0 disables churn)")
		simReqs     = fs.Int("sim-step-requests", 2000, "requests per virtual sweep step")
		simSloSpec  = fs.String("sim-slo", "", "comma-separated SLOs for the virtual sweep")
		outPath     = fs.String("out", "results/load.json", "JSON report path (empty to skip)")
		mdPath      = fs.String("md", "results/load.md", "markdown report path (empty to skip)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /debug/engine and /debug/fleet on this address while the sweeps run")
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
	simSLOs, err := loadgen.ParseSLOs(*simSloSpec)
	if err != nil {
		return err
	}
	if *m%2 != 0 || *m <= 0 {
		return fmt.Errorf("-m must be positive and even (uniform costs then yield r=m/2 and a 3-device fleet), got %d", *m)
	}

	report := loadgen.Report{Version: loadgen.ReportVersion}

	// --- Scenario 1: real-socket loopback fleet, exactly three devices. ---
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
	report.Scenarios = append(report.Scenarios, fleetScenario)
	fleetScenario.WriteText(out)

	// --- Scenario 2: virtual-clock simulation at fleet scale with churn. ---
	if *simDevices > 0 {
		vRates, err := loadgen.ParseRates(*simRates)
		if err != nil {
			return err
		}
		// The virtual schedule draws fresh arrivals; bursty state must not
		// leak between scenarios, so parse a fresh instance.
		vArrival, _ := loadgen.ParseArrival(*arrivalSpec)
		rows := (*m + dep.Plan.R + *simDevices - 1) / *simDevices
		simScenario := loadgen.Scenario{
			Name:    fmt.Sprintf("sim-%ddev-churn", *simDevices),
			Backend: "sim",
			Clock:   "virtual",
			Arrival: vArrival.Name(),
			Devices: *simDevices,
		}
		fmt.Fprintf(out, "sweeping %d virtual devices at %s QPS (churn every ~%v)...\n", *simDevices, *simRates, *simChurn)
		vSteps, stats, err := loadgen.VirtualSweep(loadgen.VirtualOptions{
			Devices:         *simDevices,
			RowsPerDevice:   max(rows, 1),
			Cols:            *l,
			ChurnEvery:      *simChurn,
			Rates:           vRates,
			RequestsPerStep: *simReqs,
			Arrival:         vArrival,
			Seed:            *seed,
		})
		if err != nil {
			return err
		}
		simScenario.Steps = vSteps
		simScenario.KneeQPS = stats.KneeQPS
		simScenario.ChurnEvents = stats.ChurnEvents
		simScenario.Outages = stats.Outages
		if err := simScenario.CheckSLOs(simSLOs); err != nil && sloErr == nil {
			sloErr = err
		}
		report.Scenarios = append(report.Scenarios, simScenario)
		simScenario.WriteText(out)
	}

	if *outPath != "" {
		if err := os.MkdirAll(filepath.Dir(*outPath), 0o755); err != nil {
			return err
		}
	}
	if err := report.WriteFiles(*outPath, *mdPath); err != nil {
		return err
	}
	if *outPath != "" {
		fmt.Fprintf(out, "report written to %s", *outPath)
		if *mdPath != "" {
			fmt.Fprintf(out, " and %s", *mdPath)
		}
		fmt.Fprintln(out)
	}
	return sloErr
}
