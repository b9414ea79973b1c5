package loadgen

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/scec/scec/internal/obs"
)

// StepResult is one offered-load step of a sweep, with the tail summary the
// latency-vs-load curve plots.
type StepResult struct {
	OfferedQPS  float64       `json:"offered_qps"`
	AchievedQPS float64       `json:"achieved_qps"`
	Requests    int           `json:"requests"`
	Errors      int           `json:"errors"`
	Shed        int           `json:"shed,omitempty"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
	P999        time.Duration `json:"p999_ns"`
	Max         time.Duration `json:"max_ns"`
	Mean        time.Duration `json:"mean_ns"`
	// Saturated marks the step as past the knee (see DetectKnee).
	Saturated bool `json:"saturated"`
}

// summarize folds a run result into a step row.
func summarize(r Result) StepResult {
	return StepResult{
		OfferedQPS:  r.Offered,
		AchievedQPS: r.Achieved,
		Requests:    r.Requests,
		Errors:      r.Errors,
		Shed:        r.Shed,
		P50:         r.Latency.Quantile(0.50),
		P99:         r.Latency.Quantile(0.99),
		P999:        r.Latency.Quantile(0.999),
		Max:         r.Latency.Max(),
		Mean:        r.Latency.Mean(),
	}
}

// SweepOptions configures a stepped offered-load sweep.
type SweepOptions struct {
	// Rates are the offered-load steps in requests/second, ascending.
	Rates []float64
	// RequestsPerStep fixes each step's request count. When zero,
	// StepDuration sets the count as rate·duration (minimum 50).
	RequestsPerStep int
	// StepDuration is the nominal length of each step when RequestsPerStep
	// is zero.
	StepDuration time.Duration
	// Arrival, Seed, Timeout, MaxInFlight, and Metrics configure each step's
	// Run; see Options.
	Arrival     Arrival
	Seed        uint64
	Timeout     time.Duration
	MaxInFlight int
	Metrics     *obs.Registry
}

// stepRequests resolves a step's request budget.
func (o SweepOptions) stepRequests(rate float64) int {
	if o.RequestsPerStep > 0 {
		return o.RequestsPerStep
	}
	d := o.StepDuration
	if d <= 0 {
		d = time.Second
	}
	n := int(rate * d.Seconds())
	if n < 50 {
		n = 50
	}
	return n
}

// Sweep runs one open-loop step per rate, ascending, and classifies each
// step against the saturation criteria (DetectKnee). The same seed produces
// the same arrival schedules step for step. Cancelling ctx aborts between
// (and within) steps.
func Sweep(ctx context.Context, target Target, o SweepOptions) ([]StepResult, error) {
	if len(o.Rates) == 0 {
		return nil, fmt.Errorf("loadgen: sweep needs at least one rate step")
	}
	steps := make([]StepResult, 0, len(o.Rates))
	for i, rate := range o.Rates {
		if err := ctx.Err(); err != nil {
			return steps, err
		}
		res, err := Run(ctx, target, Options{
			Rate:        rate,
			Requests:    o.stepRequests(rate),
			Arrival:     o.Arrival,
			Seed:        o.Seed + uint64(i),
			Timeout:     o.Timeout,
			MaxInFlight: o.MaxInFlight,
			Metrics:     o.Metrics,
		})
		if err != nil {
			return steps, err
		}
		steps = append(steps, summarize(res))
	}
	DetectKnee(steps)
	return steps, nil
}

// DetectKnee's saturation thresholds; its doc states the rule.
const (
	kneeP99Factor   = 3
	kneeMinAchieved = 0.9
)

// DetectKnee classifies each step's Saturated flag in place and returns the
// saturation knee: the highest offered load the target sustains. A step is
// saturated when any of
//
//   - its p99 exceeds kneeP99Factor (3)× the first (lightest) step's p99,
//   - it completed less than kneeMinAchieved (90%) of its offered load, or
//   - more than 1% of its requests errored or were shed,
//
// and every step after the first saturated one is saturated too (a knee is
// monotone: once the queue grows without bound, higher offered loads only
// make it worse — an accidental dip back under the latency threshold at a
// higher rate is measurement noise, not recovered capacity). The returned
// knee is the last unsaturated step's offered rate, or 0 when even the
// first step saturates.
func DetectKnee(steps []StepResult) float64 {
	if len(steps) == 0 {
		return 0
	}
	base := steps[0].P99
	knee := 0.0
	saturated := false
	for i := range steps {
		s := &steps[i]
		bad := s.Requests > 0 && float64(s.Errors+s.Shed) > 0.01*float64(s.Requests)
		slow := base > 0 && float64(s.P99) > kneeP99Factor*float64(base)
		starved := s.AchievedQPS < kneeMinAchieved*s.OfferedQPS
		if saturated || slow || starved || bad {
			saturated = true
			s.Saturated = true
			continue
		}
		knee = s.OfferedQPS
	}
	return knee
}

// ParseRates parses a comma-separated ascending positive QPS list, the
// CLI-flag form of SweepOptions.Rates.
func ParseRates(csv string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || !finitePositive(r) {
			return nil, fmt.Errorf("loadgen: bad rate %q (want a positive QPS list like 50,100,200)", part)
		}
		if len(rates) > 0 && r <= rates[len(rates)-1] {
			return nil, fmt.Errorf("loadgen: rates must ascend, got %q", csv)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("loadgen: no rates in %q", csv)
	}
	return rates, nil
}

// SLO is one declared latency target: quantile ≤ Bound at offered load
// AtQPS.
type SLO struct {
	// Quantile names the checked statistic: p50, p99, p999, mean, or max.
	Quantile string `json:"quantile"`
	// Bound is the latency ceiling.
	Bound time.Duration `json:"bound_ns"`
	// AtQPS selects the sweep step the bound applies to: the first step with
	// OfferedQPS ≥ AtQPS.
	AtQPS float64 `json:"at_qps"`
}

// ParseSLO parses "QUANTILE<=BOUND@QPS", e.g. "p99<=50ms@200" — p99 latency
// at (the first step offering at least) 200 QPS must be ≤ 50ms.
func ParseSLO(spec string) (SLO, error) {
	q, rest, ok := strings.Cut(spec, "<=")
	if !ok {
		return SLO{}, fmt.Errorf("loadgen: bad SLO %q (want QUANTILE<=BOUND@QPS, e.g. p99<=50ms@200)", spec)
	}
	boundStr, qpsStr, ok := strings.Cut(rest, "@")
	if !ok {
		return SLO{}, fmt.Errorf("loadgen: bad SLO %q: missing @QPS", spec)
	}
	switch q {
	case "p50", "p99", "p999", "mean", "max":
	default:
		return SLO{}, fmt.Errorf("loadgen: bad SLO quantile %q (want p50, p99, p999, mean, or max)", q)
	}
	bound, err := time.ParseDuration(boundStr)
	if err != nil || bound <= 0 {
		return SLO{}, fmt.Errorf("loadgen: bad SLO bound %q: %v", boundStr, err)
	}
	var qps float64
	if _, err := fmt.Sscanf(qpsStr, "%g", &qps); err != nil || !finitePositive(qps) {
		return SLO{}, fmt.Errorf("loadgen: bad SLO rate %q", qpsStr)
	}
	return SLO{Quantile: q, Bound: bound, AtQPS: qps}, nil
}

// finitePositive reports whether v is a usable rate: > 0, not NaN or ±Inf.
func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// ParseSLOs parses a comma-separated SLO list ("" yields none).
func ParseSLOs(spec string) ([]SLO, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	var slos []SLO
	for _, part := range strings.Split(spec, ",") {
		s, err := ParseSLO(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		slos = append(slos, s)
	}
	return slos, nil
}

// String renders the SLO in its parseable form.
func (s SLO) String() string {
	return fmt.Sprintf("%s<=%v@%g", s.Quantile, s.Bound, s.AtQPS)
}

// statistic extracts the SLO's statistic from a step.
func (s SLO) statistic(step StepResult) (time.Duration, error) {
	switch s.Quantile {
	case "p50":
		return step.P50, nil
	case "p99":
		return step.P99, nil
	case "p999":
		return step.P999, nil
	case "mean":
		return step.Mean, nil
	case "max":
		return step.Max, nil
	default:
		return 0, fmt.Errorf("loadgen: unknown SLO quantile %q", s.Quantile)
	}
}

// SLOResult is one checked SLO.
type SLOResult struct {
	SLO SLO `json:"slo"`
	// MeasuredAtQPS is the offered rate of the step the bound was checked
	// against (the first step ≥ AtQPS).
	MeasuredAtQPS float64 `json:"measured_at_qps"`
	// Measured is the observed statistic at that step.
	Measured time.Duration `json:"measured_ns"`
	// OK reports whether the bound held.
	OK bool `json:"ok"`
}

// Eval checks the SLO against a sweep: the bound applies to the first step
// whose offered load is ≥ AtQPS. An error means the sweep never offered
// enough load to check the SLO at all.
func (s SLO) Eval(steps []StepResult) (SLOResult, error) {
	for _, step := range steps {
		if step.OfferedQPS >= s.AtQPS {
			m, err := s.statistic(step)
			if err != nil {
				return SLOResult{}, err
			}
			return SLOResult{SLO: s, MeasuredAtQPS: step.OfferedQPS, Measured: m, OK: m <= s.Bound}, nil
		}
	}
	return SLOResult{}, fmt.Errorf("loadgen: SLO %s needs a sweep step offering >= %g QPS", s, s.AtQPS)
}
