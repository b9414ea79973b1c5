package experiments

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"github.com/scec/scec/internal/alloc"
	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/engine"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/fleet"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/sim"
	"github.com/scec/scec/internal/workload"
)

// DelayPoint is one (replication factor, straggler probability) cell of the
// delay study.
type DelayPoint struct {
	// Replicas is how many devices host each coded block.
	Replicas int
	// StragglerProb is the per-replica probability of a 10× slowdown.
	StragglerProb float64
	// SuccessRate is the fraction of trials where every block had at least
	// one surviving replica, so the gather could reach it.
	SuccessRate float64
	// MeanCompletion averages completion time over successful trials, and
	// MedianCompletion is their median.
	MeanCompletion, MedianCompletion time.Duration
	// RescuedShare is the fraction of successful trials in which some block
	// was won by an attempt launched after the gather began (a hedge, a
	// failover or a retry): the trials only replication or a retry saved,
	// which also carry its longest completions.
	RescuedShare float64
	// StorageOverhead is provisioned rows / (m+r).
	StorageOverhead float64
}

// DelayResult is the full study.
type DelayResult struct {
	// M, L, R document the coded workload simulated.
	M, L, R int
	// Points holds one cell per (replicas, stragglerProb) pair.
	Points []DelayPoint
}

// Delay-study constants: a mid-sized workload, a 10× straggler model, and a
// 3% independent replica failure probability.
const (
	delayM          = 200
	delayL          = 32
	delayStraggle   = 10.0
	delayFailProb   = 0.03
	delayTrialCount = 150
	saltDelay       = 0xde1a
)

// DelaySweep quantifies Remark 1 and the §II-A availability assumption on a
// simulated fleet session, whose own gather races the replicas: how
// replication of coded blocks trades storage for completion time and success
// rate under stragglers and failures. For each replication factor 1–3 and
// straggler probability in {0, 0.2, 0.5}, it runs many seeded trials.
func DelaySweep(cfg Config) (DelayResult, error) {
	f := field.Prime{}
	rng := workload.RNG(cfg.Seed^saltDelay, 0, 0)

	in := workload.Instance(rng, delayM, 10, workload.Uniform{Max: cfg.Defaults.CMax})
	plan, err := alloc.TA1(in)
	if err != nil {
		return DelayResult{}, err
	}
	code, err := coding.NewStructured(f, delayM, plan.R)
	if err != nil {
		return DelayResult{}, err
	}
	a := matrix.Random(f, rng, delayM, delayL)
	enc, err := code.Encode(a, rng)
	if err != nil {
		return DelayResult{}, err
	}
	x := matrix.RandomVec(f, rng, delayL)
	want := matrix.MulVec(f, a, x)

	res := DelayResult{M: delayM, L: delayL, R: plan.R}
	reg := obs.New()
	for _, replicas := range []int{1, 2, 3} {
		for _, pStraggle := range []float64{0, 0.2, 0.5} {
			pt := DelayPoint{Replicas: replicas, StragglerProb: pStraggle}
			var completions []time.Duration
			rescued := 0
			for trial := 0; trial < delayTrialCount; trial++ {
				trialRNG := workload.RNG(cfg.Seed^saltDelay, replicas*1000+int(pStraggle*10), trial)
				seed := trialRNG.Uint64()
				groups := make([][]sim.DeviceProfile, code.Devices())
				for j := range groups {
					groups[j] = make([]sim.DeviceProfile, replicas)
					for r := range groups[j] {
						p := sim.DefaultProfile()
						p.FailProb = delayFailProb
						if trialRNG.Float64() < pStraggle {
							p.StragglerFactor = delayStraggle
						}
						groups[j][r] = p
					}
				}
				rep, err := delayTrial(f, enc, x, want, engine.SimConfig{
					Profiles: func(j int) []sim.DeviceProfile { return groups[j] },
					Seed:     seed,
					Metrics:  reg,
				})
				if errors.Is(err, fleet.ErrBlockUnavailable) {
					continue // all replicas of some block failed
				}
				if err != nil {
					return DelayResult{}, err
				}
				completions = append(completions, rep.CompletionTime)
				if slices.ContainsFunc(rep.Devices, func(d sim.DeviceReport) bool {
					return d.Outcome == sim.Won && d.Launched > 0
				}) {
					rescued++
				}
				pt.StorageOverhead = rep.StorageOverhead
			}
			pt.SuccessRate = float64(len(completions)) / float64(delayTrialCount)
			if n := len(completions); n > 0 {
				var total time.Duration
				for _, c := range completions {
					total += c
				}
				slices.Sort(completions)
				pt.MeanCompletion = total / time.Duration(n)
				pt.MedianCompletion = (completions[(n-1)/2] + completions[n/2]) / 2
				pt.RescuedShare = float64(rescued) / float64(n)
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// delayTrial answers one query through the execution engine over the
// simulator — the path every simulated query takes — checks the decoded
// answer against the plaintext product, and returns the round's report.
func delayTrial(f field.Prime, enc *coding.Encoding[uint64], x, want []uint64, cfg engine.SimConfig) (sim.Report, error) {
	exec, err := engine.NewSim(f, enc, cfg)
	if err != nil {
		return sim.Report{}, err
	}
	q, err := engine.New(f, enc, exec, engine.Options{Metrics: cfg.Metrics})
	if err != nil {
		return sim.Report{}, err
	}
	defer func() { _ = q.Close() }()
	got, err := q.MulVec(x)
	if err != nil {
		return sim.Report{}, err
	}
	if !matrix.VecEqual(f, got, want) {
		return sim.Report{}, fmt.Errorf("experiments: delay trial decoded the wrong result")
	}
	rep, _ := exec.LastReport()
	return rep, nil
}

// WriteDelayMarkdown renders the delay study as a markdown table.
func WriteDelayMarkdown(w io.Writer, res DelayResult) error {
	if _, err := fmt.Fprintf(w, "### delay — replication vs stragglers/failures (m=%d, l=%d, r=%d, %d trials/cell)\n\n",
		res.M, res.L, res.R, delayTrialCount); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "| replicas | straggler prob | success rate | mean completion | median completion | rescued | storage overhead |\n|---|---|---|---|---|---|---|"); err != nil {
		return err
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	for _, p := range res.Points {
		if _, err := fmt.Fprintf(w, "| %d | %.1f | %.1f%% | %.3fms | %.3fms | %.1f%% | %.1fx |\n",
			p.Replicas, p.StragglerProb, 100*p.SuccessRate,
			ms(p.MeanCompletion), ms(p.MedianCompletion), 100*p.RescuedShare, p.StorageOverhead); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
