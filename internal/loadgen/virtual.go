package loadgen

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/scec/scec/internal/sim"
)

// VirtualOptions configures a virtual-clock load scenario: the same stepped
// open-loop sweep the wall-clock generator runs, executed as a discrete-
// event simulation over thousands of modelled devices. Requests arrive as a
// Poisson process on the virtual clock; each round's service time is priced
// by internal/sim's device timeline (the slowest device bounds the round, as
// in the real gather), and the user sustains sim.RoundsInFlight rounds in
// flight (sim.RoundQueue), so offered load beyond that many rounds per
// service time queues — which is exactly the saturation knee the sweep
// detects. Latency is measured from the intended virtual arrival time, the
// same coordinated-omission-safe rule as the real generator.
type VirtualOptions struct {
	// DeviceRows gives each device its coded row count (e.g. an allocation
	// plan's per-device assignment, such as a t-collusion layout): device j
	// serves DeviceRows[j] rows, and the slowest device bounds each round.
	// Cols is the input-vector length. Both must be positive.
	DeviceRows []int
	Cols       int
	// ChurnEvery is the mean virtual interval between churn events (a device
	// transiently slowing down, or dropping out and re-provisioning). Zero
	// disables churn.
	ChurnEvery time.Duration

	// Rates, RequestsPerStep, and Seed mirror SweepOptions on the virtual
	// clock.
	Rates           []float64
	RequestsPerStep int
	Seed            uint64
}

// The churn model's fixed shape. Every device is sim.DefaultProfile(), the
// nominal edge device the single-run simulator and EXPERIMENTS.md's 10.07 ms
// round are stated for. A churn event is an outage with probability
// churnOutageFrac — the device leaves and its replacement must receive the
// coded block before rounds can complete — and a slowdown otherwise: the
// device's compute time is multiplied by a factor drawn uniformly from
// [2, churnSlowFactorMax] — a transient straggler, not an outage — for an
// exponential time of mean churnSlowSpan×ChurnEvery, so how many devices
// straggle at once (~7) does not depend on the churn rate.
const (
	churnOutageFrac    = 0.25
	churnSlowFactorMax = 8.0
	churnSlowSpan      = 10
)

// VirtualStats aggregates what a virtual sweep found and generated.
type VirtualStats struct {
	// KneeQPS is the saturation knee DetectKnee found on the curve.
	KneeQPS float64
	// ChurnEvents counts all churn events; Outages the subset that took a
	// device out entirely.
	ChurnEvents, Outages int
}

func (o *VirtualOptions) validate() error {
	if len(o.DeviceRows) == 0 || o.Cols <= 0 {
		return fmt.Errorf("loadgen: virtual scenario needs devices (%d) and positive cols (%d)", len(o.DeviceRows), o.Cols)
	}
	for j, rows := range o.DeviceRows {
		if rows <= 0 {
			return fmt.Errorf("loadgen: DeviceRows[%d] = %d; every device needs at least one coded row", j, rows)
		}
	}
	if len(o.Rates) == 0 {
		return fmt.Errorf("loadgen: virtual sweep needs at least one rate step")
	}
	return nil
}

// VirtualSweep runs the stepped sweep on the virtual clock and returns the
// per-step curve (Saturated flags set by DetectKnee) plus the knee and churn
// statistics. Runs are deterministic in the options: the same seed yields
// the same curve, bit for bit, at any fleet size.
func VirtualSweep(o VirtualOptions) ([]StepResult, VirtualStats, error) {
	if err := o.validate(); err != nil {
		return nil, VirtualStats{}, err
	}
	var stats VirtualStats
	steps := make([]StepResult, 0, len(o.Rates))
	for i, rate := range o.Rates {
		steps = append(steps, o.runStep(rate, o.Seed+uint64(i), &stats))
	}
	stats.KneeQPS = DetectKnee(steps)
	return steps, stats, nil
}

// runStep simulates one offered-load step.
func (o *VirtualOptions) runStep(rate float64, seed uint64, stats *VirtualStats) StepResult {
	requests := o.RequestsPerStep
	if requests <= 0 {
		requests = 1000
	}
	rng := rand.New(rand.NewPCG(seed, 0x71a7c10c))
	churnRNG := rand.New(rand.NewPCG(seed, 0xc402a))
	devs := make([]sim.DeviceProfile, len(o.DeviceRows))

	// nominal is the slowest device's fault-free round time (devices differ
	// only in their rows) — the healthy round bound, so pricing a round over
	// thousands of devices remains a cheap scan with repricing only for the
	// faulted few.
	var nominal time.Duration
	for j, rows := range o.DeviceRows {
		devs[j] = sim.DefaultProfile()
		nominal = max(nominal, sim.DeviceRoundTime(rows, o.Cols, devs[j], 0))
	}

	nextChurn := time.Duration(-1)
	if o.ChurnEvery > 0 {
		nextChurn = time.Duration(churnRNG.ExpFloat64() * float64(o.ChurnEvery))
	}
	// churn appends each churn event due by now to its device's faults.
	churn := func(now time.Duration) {
		for nextChurn >= 0 && nextChurn <= now {
			at := nextChurn
			j := churnRNG.IntN(len(devs))
			f := sim.Fault{From: at}
			stats.ChurnEvents++
			if churnRNG.Float64() < churnOutageFrac {
				// The replacement receives the device's coded block before it
				// can serve.
				stats.Outages++
				f.Until, f.Down = at+sim.PushTime(o.DeviceRows[j], o.Cols, devs[j]), true
			} else {
				f.Slow = 2 + churnRNG.Float64()*(churnSlowFactorMax-2)
				f.Until = at + time.Duration(churnRNG.ExpFloat64()*float64(churnSlowSpan*o.ChurnEvery))
			}
			devs[j].Faults = append(devs[j].Faults, f)
			nextChurn = at + time.Duration(churnRNG.ExpFloat64()*float64(o.ChurnEvery))
		}
	}

	// service prices one round starting at virtual time t: churn caught up to
	// t, then the slowest device's round given its faults at t.
	service := func(t time.Duration) time.Duration {
		churn(t)
		worst := nominal
		for j, dev := range devs {
			if slow, _, upAt := dev.At(t); slow > 1 || upAt > t {
				worst = max(worst, sim.DeviceRoundTime(o.DeviceRows[j], o.Cols, dev, t))
			}
		}
		return worst
	}

	rec := NewRecorder()
	queue := sim.NewRoundQueue(sim.RoundsInFlight)
	var offset, lastFinish time.Duration
	for i := 0; i < requests; i++ {
		if i > 0 {
			offset += Poisson{}.Gap(rng, rate)
		}
		finish := queue.Serve(offset, service)
		rec.Record(finish - offset)
		lastFinish = max(lastFinish, finish)
	}

	res := Result{
		Offered:  rate,
		Requests: requests,
		Elapsed:  lastFinish,
		Latency:  rec,
	}
	if lastFinish > 0 {
		res.Achieved = float64(requests) / lastFinish.Seconds()
	}
	return summarize(res)
}
