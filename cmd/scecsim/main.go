// Command scecsim runs the complete SCEC pipeline in-process on the
// event-level simulator: allocate, encode, distribute, compute on every
// simulated device, decode, and verify against the plaintext product. It
// prints the per-device timeline and the resource accounting that Eq. (1)
// prices. A seeded run's stdout is reproducible: the stage timings measured
// on the wall clock go to stderr.
// The virtual-clock load sweep and recovery scenario are studies of
// cmd/experiments (-fig load, -fig adapt).
//
// Example:
//
//	scecsim -m 2000 -l 128 -k 12 -seed 3 -straggler 2=25
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/engine"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/sim"
	"github.com/scec/scec/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "scecsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out, errOut io.Writer) error {
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
		metrics   = fs.String("metrics-json", "", "write the run's telemetry snapshot as JSON to this path (- for stdout)")
		traceFile = fs.String("trace-export", "", "export the query's trace as JSON: the wall-clock engine spans plus the linked virtual-clock fleet.gather/block/attempt timeline")
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

	strag, err := parseStragglers(*straggler)
	if err != nil {
		return err
	}
	// Every replica of block j carries device j's slowdown and failure, for
	// the whole run.
	profiles := func(j int) []sim.DeviceProfile {
		p := sim.DefaultProfile()
		if fac, ok := strag[j]; ok {
			p.Faults = append(p.Faults, sim.Fault{Slow: fac})
		}
		if j == *failDev {
			p.Faults = append(p.Faults, sim.Fault{Fail: 1})
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
	opts = append(opts, scec.WithSimulator[uint64](scec.SimExecutorConfig{
		Profiles: profiles,
		Seed:     *seed,
	}))

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
	return finish(out, errOut, *metrics)
}

// finish prints the registry-backed stage timing table and optionally dumps
// the full telemetry snapshot as JSON. The rows the simulator prices on its
// virtual clock (store, compute and gather) go to out; the rows measured on
// the wall clock go to errOut, so two seeded runs print the same stdout.
func finish(out, errOut io.Writer, metricsPath string) error {
	var table strings.Builder
	if err := obs.WriteStageTable(&table, nil); err != nil {
		return err
	}
	header, rows, _ := strings.Cut(table.String(), "\n")
	var virtual, wall strings.Builder
	for _, row := range strings.SplitAfter(rows, "\n") {
		switch stage, _, _ := strings.Cut(row, " "); {
		case row == "":
		case stage == obs.StageStore || stage == obs.StageCompute || stage == obs.StageGather:
			virtual.WriteString(row)
		default:
			wall.WriteString(row)
		}
	}
	if virtual.Len() > 0 {
		fmt.Fprintf(out, "stage timings (virtual clock):\n%s\n%s", header, virtual.String())
	}
	if wall.Len() > 0 {
		fmt.Fprintf(errOut, "stage timings (wall clock):\n%s\n%s", header, wall.String())
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
		if !(fac >= 1) {
			return nil, fmt.Errorf("straggler factor %g: a slowdown is at least 1", fac)
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
