package loadgen

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/scec/scec/internal/sim"
)

// VirtualOptions configures a virtual-clock load scenario: the same stepped
// open-loop sweep the wall-clock generator runs, executed as a discrete-
// event simulation over thousands of modelled devices. Requests arrive per
// the schedule on the virtual clock; each round's service time is priced by
// internal/sim's device timeline (the slowest device bounds the round, as in
// the real gather), and the user sustains Concurrency rounds in flight
// (sim.RoundQueue), so offered load beyond Concurrency/serviceTime queues —
// which is exactly the saturation knee the sweep detects. Latency is
// measured from the intended virtual arrival time, the same coordinated-
// omission-safe rule as the real generator.
type VirtualOptions struct {
	// Devices is the fleet size; RowsPerDevice the coded rows each holds;
	// Cols the input-vector length. All must be positive.
	Devices, RowsPerDevice, Cols int
	// DeviceRows, when non-empty, gives each device its own coded row count
	// (e.g. an allocation plan's per-device assignment, such as a t-collusion
	// layout): device j serves DeviceRows[j] rows and the slowest device still
	// bounds each round. Its length must equal Devices (or Devices may be left
	// zero to adopt it), and RowsPerDevice is ignored.
	DeviceRows []int
	// Concurrency is how many rounds the user drives in parallel (the
	// service capacity of the queueing model). Zero means 16.
	Concurrency int
	// ChurnEvery is the mean virtual interval between churn events (a device
	// transiently slowing down, or dropping out and re-provisioning). Zero
	// disables churn.
	ChurnEvery time.Duration
	// OutageFrac is the fraction of churn events that are outages — the
	// device leaves and its replacement must receive the coded block before
	// rounds can complete. The rest are slowdowns. Zero means 0.25.
	OutageFrac float64

	// Rates, RequestsPerStep, Arrival, and Seed mirror SweepOptions on the
	// virtual clock.
	Rates           []float64
	RequestsPerStep int
	Arrival         Arrival
	Seed            uint64
}

// The churn model's fixed shape. Every device is sim.DefaultProfile(), the
// nominal edge device the single-run simulator and EXPERIMENTS.md's 10.07 ms
// round are stated for. A churn slowdown multiplies a device's compute time
// by a factor drawn uniformly from [2, churnSlowFactorMax] — a transient
// straggler, not an outage — for an exponential time of mean
// churnSlowSpan×ChurnEvery, so how many devices straggle at once (~7) does
// not depend on the churn rate.
const (
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
	if len(o.DeviceRows) > 0 {
		if o.Devices == 0 {
			o.Devices = len(o.DeviceRows)
		}
		if o.Devices != len(o.DeviceRows) {
			return fmt.Errorf("loadgen: DeviceRows lists %d devices but Devices = %d", len(o.DeviceRows), o.Devices)
		}
		for j, rows := range o.DeviceRows {
			if rows <= 0 {
				return fmt.Errorf("loadgen: DeviceRows[%d] = %d; every device needs at least one coded row", j, rows)
			}
		}
		if o.Cols <= 0 {
			return fmt.Errorf("loadgen: virtual scenario needs positive cols (%d)", o.Cols)
		}
	} else if o.Devices <= 0 || o.RowsPerDevice <= 0 || o.Cols <= 0 {
		return fmt.Errorf("loadgen: virtual scenario needs positive devices (%d), rows (%d), and cols (%d)",
			o.Devices, o.RowsPerDevice, o.Cols)
	}
	if len(o.Rates) == 0 {
		return fmt.Errorf("loadgen: virtual sweep needs at least one rate step")
	}
	return nil
}

// rowsOn returns device j's coded row count under either layout.
func (o *VirtualOptions) rowsOn(j int) int {
	if len(o.DeviceRows) > 0 {
		return o.DeviceRows[j]
	}
	return o.RowsPerDevice
}

// deviceState is one virtual device's current churn perturbation.
type deviceState struct {
	// slowUntil bounds the straggler window; slowFactor applies within it.
	slowUntil  time.Duration
	slowFactor float64
	// outageUntil is when the device's replacement finishes re-provisioning;
	// rounds starting before it wait for it.
	outageUntil time.Duration
}

// VirtualSweep runs the stepped sweep on the virtual clock and returns the
// per-step curve (Saturated flags set by DetectKnee) plus the knee and churn
// statistics. Runs are deterministic in the options: the same seed yields
// the same curve, bit for bit, at any fleet size.
func VirtualSweep(o VirtualOptions) ([]StepResult, VirtualStats, error) {
	if err := o.validate(); err != nil {
		return nil, VirtualStats{}, err
	}
	arrival := o.Arrival
	if arrival == nil {
		arrival = Poisson{}
	}
	var stats VirtualStats
	steps := make([]StepResult, 0, len(o.Rates))
	for i, rate := range o.Rates {
		steps = append(steps, o.runStep(rate, arrival, o.Seed+uint64(i), &stats))
	}
	stats.KneeQPS = DetectKnee(steps)
	return steps, stats, nil
}

// runStep simulates one offered-load step.
func (o *VirtualOptions) runStep(rate float64, arrival Arrival, seed uint64, stats *VirtualStats) StepResult {
	requests := o.RequestsPerStep
	if requests <= 0 {
		requests = 1000
	}
	concurrency := o.Concurrency
	if concurrency <= 0 {
		concurrency = 16
	}
	outageFrac := o.OutageFrac
	if outageFrac <= 0 {
		outageFrac = 0.25
	}
	base := sim.DefaultProfile()
	rng := rand.New(rand.NewPCG(seed, 0x71a7c10c))
	churnRNG := rand.New(rand.NewPCG(seed, 0xc402a))
	states := make([]deviceState, o.Devices)

	// nominal is the slowest device's unperturbed round time (devices differ
	// only under a DeviceRows layout) — the healthy round bound, so pricing a
	// round over thousands of devices remains a cheap scan with repricing
	// only for the perturbed few.
	var nominal time.Duration
	for j := range states {
		nominal = max(nominal, sim.DeviceRoundTime(o.rowsOn(j), o.Cols, 1, base))
	}

	nextChurn := time.Duration(-1)
	if o.ChurnEvery > 0 {
		nextChurn = time.Duration(churnRNG.ExpFloat64() * float64(o.ChurnEvery))
	}
	churn := func(now time.Duration) {
		for nextChurn >= 0 && nextChurn <= now {
			at := nextChurn
			j := churnRNG.IntN(o.Devices)
			st := &states[j]
			stats.ChurnEvents++
			if churnRNG.Float64() < outageFrac {
				// The replacement receives the device's coded block before it
				// can serve.
				stats.Outages++
				st.outageUntil = max(st.outageUntil, at+sim.PushTime(o.rowsOn(j), o.Cols, base))
			} else {
				st.slowFactor = 2 + churnRNG.Float64()*(churnSlowFactorMax-2)
				st.slowUntil = at + time.Duration(churnRNG.ExpFloat64()*float64(churnSlowSpan*o.ChurnEvery))
			}
			nextChurn = at + time.Duration(churnRNG.ExpFloat64()*float64(o.ChurnEvery))
		}
	}

	// service prices one round starting at virtual time t: churn caught up to
	// t, then the slowest device's contribution given its state at t.
	service := func(t time.Duration) time.Duration {
		churn(t)
		worst := nominal
		for j := range states {
			st := &states[j]
			factor := 1.0
			if st.slowUntil > t {
				factor = st.slowFactor
			}
			if factor > 1 || st.outageUntil > t {
				worst = max(worst, sim.PerturbedRoundTime(o.rowsOn(j), o.Cols, base, factor, st.outageUntil, t))
			}
		}
		return worst
	}

	rec := NewRecorder()
	queue := sim.NewRoundQueue(concurrency)
	var offset, lastFinish time.Duration
	for i := 0; i < requests; i++ {
		if i > 0 {
			offset += arrival.Gap(rng, rate)
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
