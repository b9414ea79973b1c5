package loadgen

import (
	"context"
	"testing"
	"time"

	"github.com/scec/scec/internal/obs"
)

func TestDetectKneeSyntheticCurve(t *testing.T) {
	mk := func(qps float64, p99 time.Duration, achieved float64) StepResult {
		return StepResult{OfferedQPS: qps, AchievedQPS: achieved, Requests: 1000, P99: p99}
	}
	steps := []StepResult{
		mk(100, 10*time.Millisecond, 100),
		mk(200, 12*time.Millisecond, 200),
		mk(400, 50*time.Millisecond, 390), // p99 > 3× base: saturated
		mk(800, 500*time.Millisecond, 420),
	}
	knee := DetectKnee(steps)
	if knee != 200 {
		t.Fatalf("knee = %g, want 200", knee)
	}
	if steps[0].Saturated || steps[1].Saturated || !steps[2].Saturated || !steps[3].Saturated {
		t.Fatalf("saturation flags wrong: %+v", steps)
	}
}

func TestDetectKneeMonotone(t *testing.T) {
	mk := func(qps float64, p99 time.Duration) StepResult {
		return StepResult{OfferedQPS: qps, AchievedQPS: qps, Requests: 1000, P99: p99}
	}
	// A noisy dip back under the latency threshold after saturation must not
	// count as recovered capacity.
	steps := []StepResult{
		mk(100, 10*time.Millisecond),
		mk(200, 100*time.Millisecond), // saturated
		mk(400, 15*time.Millisecond),  // noise dip — still past the knee
	}
	knee := DetectKnee(steps)
	if knee != 100 {
		t.Fatalf("knee = %g, want 100 (saturation is monotone)", knee)
	}
	if !steps[2].Saturated {
		t.Fatal("step after the knee must stay saturated")
	}
}

func TestDetectKneeStarvedAndErrors(t *testing.T) {
	steps := []StepResult{
		{OfferedQPS: 100, AchievedQPS: 100, Requests: 1000, P99: time.Millisecond},
		{OfferedQPS: 200, AchievedQPS: 150, Requests: 1000, P99: time.Millisecond}, // achieved < 0.9×offered
	}
	if knee := DetectKnee(steps); knee != 100 {
		t.Fatalf("starved step: knee = %g, want 100", knee)
	}
	steps = []StepResult{
		{OfferedQPS: 100, AchievedQPS: 100, Requests: 1000, P99: time.Millisecond, Errors: 50},
	}
	if knee := DetectKnee(steps); knee != 0 {
		t.Fatalf("5%% errors on the first step: knee = %g, want 0", knee)
	}
	if DetectKnee(nil) != 0 {
		t.Fatal("empty sweep must have no knee")
	}
}

func TestSweepRunsAllSteps(t *testing.T) {
	steps, err := Sweep(context.Background(), func(ctx context.Context) error { return nil }, SweepOptions{
		Rates:           []float64{500, 1000},
		RequestsPerStep: 100,
		Arrival:         Uniform{},
		Metrics:         obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(steps))
	}
	for i, s := range steps {
		if s.Requests != 100 {
			t.Errorf("step %d: requests = %d, want 100", i, s.Requests)
		}
	}
	if steps[0].OfferedQPS != 500 || steps[1].OfferedQPS != 1000 {
		t.Fatalf("offered rates wrong: %+v", steps)
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	steps, err := Sweep(ctx, func(ctx context.Context) error { return nil }, SweepOptions{
		Rates:           []float64{100},
		RequestsPerStep: 10,
	})
	if err == nil {
		t.Fatalf("cancelled sweep returned nil error with %d steps", len(steps))
	}
}

func TestStepRequestsFromDuration(t *testing.T) {
	o := SweepOptions{StepDuration: 2 * time.Second}
	if n := o.stepRequests(100); n != 200 {
		t.Fatalf("stepRequests(100) = %d, want 200", n)
	}
	if n := o.stepRequests(1); n != 50 {
		t.Fatalf("stepRequests(1) = %d, want the 50 minimum", n)
	}
	o = SweepOptions{RequestsPerStep: 77}
	if n := o.stepRequests(1000); n != 77 {
		t.Fatalf("explicit RequestsPerStep ignored: %d", n)
	}
}

func TestParseSLO(t *testing.T) {
	s, err := ParseSLO("p99<=50ms@200")
	if err != nil {
		t.Fatal(err)
	}
	if s.Quantile != "p99" || s.Bound != 50*time.Millisecond || s.AtQPS != 200 {
		t.Fatalf("parsed %+v", s)
	}
	if s.String() != "p99<=50ms@200" {
		t.Fatalf("String() = %q, not round-trippable", s.String())
	}
	for _, bad := range []string{"", "p99<=50ms", "p98<=50ms@200", "p99<=zzz@200", "p99<=50ms@-1", "p99<=-5ms@200", "p99<=50ms@NaN", "p99<=50ms@+Inf"} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) accepted", bad)
		}
	}
	slos, err := ParseSLOs("p50<=1ms@100, p999<=1s@100")
	if err != nil || len(slos) != 2 {
		t.Fatalf("ParseSLOs: %v, %v", slos, err)
	}
	if slos, err := ParseSLOs("  "); err != nil || slos != nil {
		t.Fatalf("blank SLO list: %v, %v", slos, err)
	}
}

func TestParseRates(t *testing.T) {
	rates, err := ParseRates(" 50, 100,200 ")
	if err != nil || len(rates) != 3 || rates[0] != 50 || rates[2] != 200 {
		t.Fatalf("ParseRates = %v, %v", rates, err)
	}
	for _, bad := range []string{"", " , ", "0", "-5", "zzz", "200,100", "NaN", "100,Inf", "+Inf", "100,NaN"} {
		if _, err := ParseRates(bad); err == nil {
			t.Errorf("ParseRates(%q) accepted", bad)
		}
	}
}

func TestSLOEval(t *testing.T) {
	steps := []StepResult{
		{OfferedQPS: 100, P99: 5 * time.Millisecond},
		{OfferedQPS: 300, P99: 80 * time.Millisecond},
	}
	res, err := SLO{Quantile: "p99", Bound: 10 * time.Millisecond, AtQPS: 100}.Eval(steps)
	if err != nil || !res.OK || res.MeasuredAtQPS != 100 {
		t.Fatalf("eval at 100: %+v, %v", res, err)
	}
	// AtQPS between steps binds to the first step offering at least that much.
	res, err = SLO{Quantile: "p99", Bound: 10 * time.Millisecond, AtQPS: 200}.Eval(steps)
	if err != nil || res.OK || res.MeasuredAtQPS != 300 {
		t.Fatalf("eval at 200: %+v, %v", res, err)
	}
	if _, err := (SLO{Quantile: "p99", Bound: time.Millisecond, AtQPS: 1000}).Eval(steps); err == nil {
		t.Fatal("SLO beyond the sweep's max rate must error")
	}
}

func TestScenarioCheckSLOs(t *testing.T) {
	sc := Scenario{
		Name:  "t",
		Steps: []StepResult{{OfferedQPS: 100, P99: 20 * time.Millisecond}},
	}
	err := sc.CheckSLOs([]SLO{
		{Quantile: "p99", Bound: 50 * time.Millisecond, AtQPS: 100},
		{Quantile: "p99", Bound: 10 * time.Millisecond, AtQPS: 100},
	})
	if err == nil {
		t.Fatal("violated SLO not reported")
	}
	if len(sc.SLOs) != 2 || !sc.SLOs[0].OK || sc.SLOs[1].OK {
		t.Fatalf("SLO results wrong: %+v", sc.SLOs)
	}
	rep := Report{Version: ReportVersion, Scenarios: []Scenario{sc}}
	if rep.Check() == nil {
		t.Fatal("report check must surface the violation")
	}
}
