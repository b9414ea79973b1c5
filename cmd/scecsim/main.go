// Command scecsim runs the complete SCEC pipeline in-process on the
// event-level simulator: allocate, encode, distribute, compute on every
// simulated device, decode, and verify against the plaintext product. It
// prints the per-device timeline and the resource accounting that Eq. (1)
// prices.
//
// With -load it switches from one verified pipeline run to the heavy-traffic
// harness: an open-loop, coordinated-omission-safe offered-load sweep over
// the planned fleet (or -load-devices virtual devices) on the virtual clock,
// with churn, reporting the latency-vs-load curve and saturation knee.
//
// Examples:
//
//	scecsim -m 2000 -l 128 -k 12 -seed 3 -straggler 2=25
//	scecsim -load -load-devices 1000 -load-rates 500,1000,2000,4000
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/adapt"
	"github.com/scec/scec/internal/engine"
	"github.com/scec/scec/internal/loadgen"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/sim"
	"github.com/scec/scec/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "scecsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("scecsim", flag.ContinueOnError)
	var (
		m         = fs.Int("m", 1000, "rows of the confidential matrix A")
		l         = fs.Int("l", 64, "columns of A (and length of x)")
		k         = fs.Int("k", 10, "edge devices in the candidate fleet")
		cmax      = fs.Float64("cmax", 5, "fleet costs sampled from U(1, c_max)")
		tFlag     = fs.Int("t", 1, "collusion threshold: t >= 2 deploys the Cauchy-masked coding tier secure against t colluding devices")
		seed      = fs.Uint64("seed", 1, "workload seed (costs, A, x, simulator draws); the masking rows R come from it only when -seed is given, otherwise from crypto/rand")
		straggler = fs.String("straggler", "", "per-device slowdowns, e.g. 0=10,2=3")
		failDev   = fs.Int("fail", -1, "force this device (scheme order) to fail")
		replicas  = fs.Int("replicas", 1, "copies of each coded block (replication masks stragglers/failures)")
		backend   = fs.String("backend", "sim", "execution backend: sim (virtual clock) or local (in-process kernels)")
		metrics   = fs.String("metrics-json", "", "write the run's telemetry snapshot as JSON to this path (- for stdout)")
		traceFile = fs.String("trace-export", "", "export the query's trace as JSON: the wall-clock engine spans plus the linked virtual-clock fleet.gather/block/attempt timeline")

		load        = fs.Bool("load", false, "run the open-loop heavy-traffic sweep on the virtual clock instead of one pipeline run")
		loadDevices = fs.Int("load-devices", 0, "virtual fleet size for -load (0 uses the deployment plan's device count)")
		loadRates   = fs.String("load-rates", "500,1000,2000,4000", "offered-load steps (QPS) for -load")
		loadReqs    = fs.Int("load-requests", 2000, "requests per -load sweep step")
		loadChurn   = fs.Duration("load-churn", 200*time.Millisecond, "mean virtual interval between churn events during -load (0 disables churn)")
		loadArrival = fs.String("load-arrival", "poisson", "-load arrival schedule: poisson, uniform, or bursty[:FxL]")
		loadSLO     = fs.String("load-slo", "", "comma-separated SLOs for -load, e.g. p99<=50ms@1000 (violations exit non-zero)")
		loadOut     = fs.String("load-out", "", "write the -load report as JSON to this path")
		loadMD      = fs.String("load-md", "", "write the -load report as markdown to this path")

		adaptive      = fs.Bool("adaptive", false, "run the closed-loop recovery scenario: adaptive vs frozen vs oracle re-planning under a mid-run straggler and outage")
		adaptDevices  = fs.Int("adapt-devices", 0, "candidate pool size for -adaptive (0 for the scenario default, 1000)")
		adaptM        = fs.Int("adapt-m", 0, "data-matrix rows for -adaptive (0 for the scenario default, 4096)")
		adaptQPS      = fs.Float64("adapt-qps", 0, "offered load for -adaptive (0 for the scenario default, 100)")
		adaptDuration = fs.Duration("adapt-duration", 0, "virtual run length for -adaptive (0 for the scenario default, 60s)")
		adaptInitialR = fs.Int("adapt-initial-r", 0, "force the -adaptive starting deployment to this suboptimal r (0 starts at the TA2 optimum)")
		adaptOut      = fs.String("adapt-out", "", "write the -adaptive recovery report as JSON to this path")
		adaptCheck    = fs.Bool("adapt-check", false, "enforce the -adaptive acceptance bounds (recovery within 1.5x oracle, >=2x better than frozen, zero failed queries); violations exit non-zero")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	seeded := false
	fs.Visit(func(f *flag.Flag) { seeded = seeded || f.Name == "seed" })
	if *tFlag < 1 {
		return fmt.Errorf("-t %d: the collusion threshold must be at least 1", *tFlag)
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas %d: every coded block needs at least one copy", *replicas)
	}
	if *adaptive {
		if *load || *straggler != "" || *failDev >= 0 || *replicas > 1 || *traceFile != "" {
			return fmt.Errorf("-adaptive runs its own three-arm recovery scenario; -load, -straggler, -fail, -replicas, and -trace-export configure other modes")
		}
		if *tFlag >= 2 {
			return fmt.Errorf("-adaptive re-plans with the t = 1 allocators; the t-collusion tier (-t %d) is static for now", *tFlag)
		}
		return runAdaptScenario(out, adapt.ScenarioConfig{
			Devices: *adaptDevices, M: *adaptM, QPS: *adaptQPS,
			Duration: *adaptDuration, Seed: *seed, InitialR: *adaptInitialR,
		}, *adaptOut, *adaptCheck)
	}
	if *load {
		if *straggler != "" || *failDev >= 0 || *replicas > 1 || *traceFile != "" || *backend != "sim" {
			return fmt.Errorf("-load sweeps a homogeneous virtual fleet under churn; -straggler, -fail, -replicas, -trace-export, and -backend configure single pipeline runs")
		}
		return runSimLoad(out, simLoadConfig{
			m: *m, l: *l, k: *k, cmax: *cmax, t: *tFlag, seed: *seed, seeded: seeded,
			devices: *loadDevices, rates: *loadRates, requests: *loadReqs,
			churn: *loadChurn, arrival: *loadArrival, slo: *loadSLO,
			out: *loadOut, md: *loadMD, metricsPath: *metrics,
		})
	}

	strag, err := parseStragglers(*straggler)
	if err != nil {
		return err
	}
	// Every replica of block j carries device j's straggler and failure.
	profiles := func(j int) []sim.DeviceProfile {
		p := sim.DefaultProfile()
		if fac, ok := strag[j]; ok {
			p.StragglerFactor = fac
		}
		if j == *failDev {
			p.FailProb = 1
		}
		group := make([]sim.DeviceProfile, *replicas)
		for r := range group {
			group[r] = p
		}
		return group
	}
	var tr *trace.Tracer
	var opts []scec.DeployOption[uint64]
	if *tFlag >= 2 {
		opts = append(opts, scec.WithCollusion[uint64](*tFlag))
	}
	if *traceFile != "" {
		tr = trace.New(trace.Options{Service: "scecsim"})
		opts = append(opts, scec.WithTracing[uint64](tr))
	}
	switch *backend {
	case "sim":
		opts = append(opts, scec.WithExecutor(scec.SimExecutor[uint64](scec.SimExecutorConfig{
			Profiles: profiles,
			Seed:     *seed,
		})))
	case "local":
		if *straggler != "" || *failDev >= 0 || *replicas > 1 {
			return fmt.Errorf("-backend local models no devices; -straggler, -fail, and -replicas need -backend sim")
		}
	default:
		return fmt.Errorf("unknown -backend %q (want sim or local)", *backend)
	}

	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(*seed, 0x51ec))
	in := workload.Instance(rng, *m, *k, workload.Uniform{Max: *cmax})

	a := scec.RandomMatrix(f, rng, *m, *l)
	dep, err := scec.Deploy(f, a, in.Costs, maskRNG(seeded, rng), opts...)
	if err != nil {
		return err
	}
	defer func() { _ = dep.Close() }()
	fmt.Fprintf(out, "plan: %s r=%d t=%d devices=%d cost=%.2f backend=%s\n",
		dep.Plan.Algorithm, dep.Plan.R, dep.Code.T(), dep.Plan.I, dep.Cost(), dep.Backend())
	if *failDev >= dep.Devices() {
		return fmt.Errorf("-fail %d out of range (deployment has %d devices)", *failDev, dep.Devices())
	}
	for dev := range strag {
		if dev >= dep.Devices() {
			return fmt.Errorf("straggler device %d out of range (deployment has %d devices)", dev, dep.Devices())
		}
	}

	x := scec.RandomVector(f, rng, *l)
	want := scec.MulVec(f, a, x)

	got, qerr := dep.MulVec(x)
	if simExec, ok := dep.Executor().(*engine.SimExecutor[uint64]); ok {
		if rep, reported := simExec.LastReport(); reported && len(rep.Devices) > 0 {
			printReport(out, rep)
			if *replicas > 1 {
				fmt.Fprintf(out, "replication x%d: completion %.3fms, storage overhead %.1fx\n",
					*replicas, float64(rep.CompletionTime.Microseconds())/1000, rep.StorageOverhead)
			}
		}
	}
	if qerr != nil {
		return qerr
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("verification failed at entry %d", i)
		}
	}
	fmt.Fprintf(out, "decoded result verified against plaintext A·x (%d entries)\n", len(got))
	if *traceFile != "" {
		if err := tr.WriteFile(*traceFile); err != nil {
			return fmt.Errorf("trace export: %w", err)
		}
		_, _, _, retained := tr.Stats()
		fmt.Fprintf(out, "exported %d retained spans to %s\n", retained, *traceFile)
	}
	return finish(out, *metrics)
}

// simLoadConfig carries the -load* flags into runSimLoad.
type simLoadConfig struct {
	m, l, k, t  int
	cmax        float64
	seed        uint64
	seeded      bool // -seed was given: draw R from seed's stream too
	devices     int
	rates       string
	requests    int
	churn       time.Duration
	arrival     string
	slo         string
	out, md     string
	metricsPath string
}

// runSimLoad is scecsim's heavy-traffic mode: plan a deployment for the
// configured instance exactly as a normal run would, then sweep the planned
// fleet (or -load-devices virtual devices holding the same coded work) with
// the open-loop virtual-clock generator under churn. The report shares the
// results/load.json schema the scecnet load harness writes, and any declared
// -load-slo violation is the returned (non-zero exit) error.
func runSimLoad(out io.Writer, cfg simLoadConfig) error {
	arrival, err := loadgen.ParseArrival(cfg.arrival)
	if err != nil {
		return err
	}
	rates, err := loadgen.ParseRates(cfg.rates)
	if err != nil {
		return err
	}
	slos, err := loadgen.ParseSLOs(cfg.slo)
	if err != nil {
		return err
	}

	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(cfg.seed, 0x51ec))
	in := workload.Instance(rng, cfg.m, cfg.k, workload.Uniform{Max: cfg.cmax})
	a := scec.RandomMatrix(f, rng, cfg.m, cfg.l)
	var opts []scec.DeployOption[uint64]
	if cfg.t >= 2 {
		if cfg.devices > 0 {
			return fmt.Errorf("-load-devices spreads rows uniformly over a virtual fleet; the -t %d layout comes from the collusion plan, so leave -load-devices unset", cfg.t)
		}
		opts = append(opts, scec.WithCollusion[uint64](cfg.t))
	}
	dep, err := scec.Deploy(f, a, in.Costs, maskRNG(cfg.seeded, rng), opts...)
	if err != nil {
		return err
	}
	defer func() { _ = dep.Close() }()
	devices := cfg.devices
	if devices <= 0 {
		devices = dep.Devices()
	}
	// Sweep the plan's own per-device row layout (heterogeneous under the
	// t-collusion tier); a -load-devices override instead spreads the plan's
	// coded rows (m + r in total) uniformly across the virtual fleet.
	var deviceRows []int
	rows := max((cfg.m+dep.Plan.R+devices-1)/devices, 1)
	if cfg.devices <= 0 {
		deviceRows = make([]int, len(dep.Plan.Assignments))
		for j, as := range dep.Plan.Assignments {
			deviceRows[j] = as.Rows
		}
	}
	fmt.Fprintf(out, "plan: %s r=%d t=%d devices=%d cost=%.2f; sweeping %d virtual device(s) at %s QPS (%s arrivals, churn every ~%v)\n",
		dep.Plan.Algorithm, dep.Plan.R, dep.Code.T(), dep.Plan.I, dep.Cost(), devices, cfg.rates, arrival.Name(), cfg.churn)

	sc := loadgen.Scenario{
		Name:    fmt.Sprintf("scecsim-%ddev", devices),
		Backend: "sim",
		Clock:   "virtual",
		Arrival: arrival.Name(),
		Devices: devices,
	}
	steps, stats, err := loadgen.VirtualSweep(loadgen.VirtualOptions{
		Devices:         devices,
		RowsPerDevice:   rows,
		DeviceRows:      deviceRows,
		Cols:            cfg.l,
		ChurnEvery:      cfg.churn,
		Rates:           rates,
		RequestsPerStep: cfg.requests,
		Arrival:         arrival,
		Seed:            cfg.seed,
	})
	if err != nil {
		return err
	}
	sc.Steps = steps
	sc.KneeQPS, sc.ChurnEvents, sc.Outages = stats.KneeQPS, stats.ChurnEvents, stats.Outages
	sloErr := sc.CheckSLOs(slos)
	sc.WriteText(out)

	if cfg.out != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.out), 0o755); err != nil {
			return err
		}
	}
	report := loadgen.Report{Version: loadgen.ReportVersion, Scenarios: []loadgen.Scenario{sc}}
	if err := report.WriteFiles(cfg.out, cfg.md); err != nil {
		return err
	}
	if cfg.out != "" {
		fmt.Fprintf(out, "report written to %s", cfg.out)
		if cfg.md != "" {
			fmt.Fprintf(out, " and %s", cfg.md)
		}
		fmt.Fprintln(out)
	}
	if err := finish(out, cfg.metricsPath); err != nil {
		return err
	}
	return sloErr
}

// finish prints the registry-backed stage timing table (virtual durations
// for the simulated stages, wall clock for allocate/encode/decode) and
// optionally dumps the full telemetry snapshot as JSON.
func finish(out io.Writer, metricsPath string) error {
	fmt.Fprintln(out, "stage timings (virtual clock for store/compute/gather; wall clock otherwise):")
	if err := obs.WriteStageTable(out, nil); err != nil {
		return err
	}
	switch metricsPath {
	case "":
		return nil
	case "-":
		return obs.Default().WriteJSON(out)
	default:
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		werr := obs.Default().WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		return werr
	}
}

func printReport(out io.Writer, rep sim.Report) {
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	fmt.Fprintln(out, "device  copy  round  rows  field-ops      sent  storage   launched  outcome")
	for _, d := range rep.Devices {
		outcome := strings.ToUpper(d.Outcome.String())
		if d.Outcome == sim.Won {
			outcome += fmt.Sprintf(" at %.3fms", ms(d.ResultArrives))
		}
		fmt.Fprintf(out, "%6d %5d %6d %5d %10d %9d %8d %8.3fms  %s\n",
			d.Device, d.Replica, d.Round, d.Rows, d.FieldOps, d.ValuesSent, d.StorageValues, ms(d.Launched), outcome)
	}
	fmt.Fprintf(out, "totals: %d field ops, %d values sent, %d values stored\n",
		rep.TotalFieldOps, rep.TotalValuesSent, rep.TotalStorageValues)
	if rep.CompletionTime > 0 {
		fmt.Fprintf(out, "completion (incl. %d decode ops): %.3fms\n", rep.DecodeOps, ms(rep.CompletionTime))
	}
}

// parseStragglers parses "dev=factor" pairs into a map, validating syntax
// only; index-range checks happen once the deployment's device count is
// known.
func parseStragglers(spec string) (map[int]float64, error) {
	if spec == "" {
		return nil, nil
	}
	factors := make(map[int]float64)
	for _, pair := range strings.Split(spec, ",") {
		devStr, facStr, found := strings.Cut(pair, "=")
		if !found {
			return nil, fmt.Errorf("bad straggler spec %q (want dev=factor)", pair)
		}
		dev, err := strconv.Atoi(devStr)
		if err != nil {
			return nil, fmt.Errorf("bad straggler device %q: %w", devStr, err)
		}
		fac, err := strconv.ParseFloat(facStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad straggler factor %q: %w", facStr, err)
		}
		if dev < 0 {
			return nil, fmt.Errorf("straggler device %d out of range", dev)
		}
		factors[dev] = fac
	}
	return factors, nil
}

// maskRNG is the rng Deploy draws the masking rows R from: the seeded
// workload stream when -seed was given, so the run reproduces bit for bit,
// and nil otherwise, so Deploy keys R from crypto/rand. The -seed default is
// public; R drawn from it would let anyone regenerate R and unmask every
// coded block.
func maskRNG(seeded bool, rng *rand.Rand) *rand.Rand {
	if seeded {
		return rng
	}
	return nil
}
