package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/scec/scec/internal/obs/flight"
)

// ReportVersion identifies the results/load.json schema. Bump it when a
// field changes meaning; additive fields keep the version.
const ReportVersion = 1

// Scenario is one swept system under load: a latency-vs-offered-load curve,
// the detected knee, and the declared SLOs checked against it.
type Scenario struct {
	// Name labels the scenario ("fleet-3dev", "sim-1000dev-churn", ...).
	Name string `json:"name"`
	// Backend is the execution substrate (fleet, local, sim).
	Backend string `json:"backend"`
	// Clock is "wall" for real-socket runs, "virtual" for simulator runs.
	Clock string `json:"clock"`
	// Arrival names the schedule that generated the load.
	Arrival string `json:"arrival"`
	// Devices is the device count behind the scenario.
	Devices int `json:"devices"`
	// ChurnEvents and Outages count the virtual scenario's churn activity
	// (zero for real-socket runs without churn).
	ChurnEvents int `json:"churn_events,omitempty"`
	Outages     int `json:"outages,omitempty"`
	// Steps is the latency-vs-load curve, ascending offered load.
	Steps []StepResult `json:"steps"`
	// KneeQPS is the saturation knee: the highest offered load sustained
	// (see DetectKnee).
	KneeQPS float64 `json:"knee_qps"`
	// SLOs holds the declared-target checks.
	SLOs []SLOResult `json:"slos,omitempty"`
}

// CheckSLOs evaluates the declared SLOs against the scenario's curve,
// records the results, and returns the violations (nil when all hold).
func (s *Scenario) CheckSLOs(slos []SLO) error {
	var bad []string
	for _, slo := range slos {
		res, err := slo.Eval(s.Steps)
		if err != nil {
			return err
		}
		s.SLOs = append(s.SLOs, res)
		if !res.OK {
			bad = append(bad, fmt.Sprintf("%s: measured %v at %g QPS", slo, res.Measured, res.MeasuredAtQPS))
			flight.Default().PublishDetail(flight.KindSLOBreach, s.Name, slo.String(), int64(res.MeasuredAtQPS), 0)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("loadgen: scenario %s violates %d SLO(s): %s", s.Name, len(bad), strings.Join(bad, "; "))
	}
	return nil
}

// WriteText renders the scenario's curve as a plain console table with the
// knee and SLO verdicts — the CLI-facing sibling of Report.WriteMarkdown.
func (s *Scenario) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%s: knee at %.0f QPS\n", s.Name, s.KneeQPS)
	fmt.Fprintf(w, "  offered   achieved   p50        p99        p999       shed saturated\n")
	for _, st := range s.Steps {
		sat := ""
		if st.Saturated {
			sat = "yes"
		}
		fmt.Fprintf(w, "  %-9.0f %-10.1f %-10v %-10v %-10v %-4d %s\n",
			st.OfferedQPS, st.AchievedQPS,
			st.P50.Round(time.Microsecond), st.P99.Round(time.Microsecond), st.P999.Round(time.Microsecond),
			st.Shed, sat)
	}
	for _, res := range s.SLOs {
		verdict := "OK"
		if !res.OK {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(w, "  SLO %s: measured %v at %g QPS — %s\n",
			res.SLO, res.Measured.Round(time.Microsecond), res.MeasuredAtQPS, verdict)
	}
}

// Report is the results/load.json document: every scenario the load study
// (`experiments -fig load`) sweeps.
type Report struct {
	Version   int        `json:"version"`
	Scenarios []Scenario `json:"scenarios"`
}

// Check returns an error naming every SLO violation recorded in the report.
func (r *Report) Check() error {
	var errs []error
	for _, sc := range r.Scenarios {
		for _, res := range sc.SLOs {
			if !res.OK {
				errs = append(errs, fmt.Errorf("scenario %s: SLO %s violated: measured %v at %g QPS",
					sc.Name, res.SLO, res.Measured, res.MeasuredAtQPS))
			}
		}
	}
	return errors.Join(errs...)
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ms renders a duration as fractional milliseconds for the markdown tables.
func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6) }

// WriteMarkdown renders the human-readable companion to the JSON report:
// one latency-vs-load table per scenario with the knee and SLO verdicts.
func (r *Report) WriteMarkdown(w io.Writer) error {
	fmt.Fprintf(w, "# Load sweep — latency vs offered load\n\n")
	fmt.Fprintf(w, "Open-loop, coordinated-omission-safe measurement: every latency is taken\n")
	fmt.Fprintf(w, "against the request's *intended* arrival time from the arrival schedule, so\n")
	fmt.Fprintf(w, "queue delay behind a stall is counted instead of omitted.\n")
	for _, sc := range r.Scenarios {
		fmt.Fprintf(w, "\n## %s\n\n", sc.Name)
		fmt.Fprintf(w, "backend=%s clock=%s arrival=%s devices=%d", sc.Backend, sc.Clock, sc.Arrival, sc.Devices)
		if sc.ChurnEvents > 0 {
			fmt.Fprintf(w, " churn-events=%d outages=%d", sc.ChurnEvents, sc.Outages)
		}
		fmt.Fprintf(w, "\n\n")
		fmt.Fprintf(w, "| offered QPS | achieved QPS | requests | errors | shed | p50 ms | p99 ms | p999 ms | max ms | saturated |\n")
		fmt.Fprintf(w, "|---:|---:|---:|---:|---:|---:|---:|---:|---:|:---|\n")
		for _, st := range sc.Steps {
			sat := ""
			if st.Saturated {
				sat = "yes"
			}
			fmt.Fprintf(w, "| %.0f | %.1f | %d | %d | %d | %s | %s | %s | %s | %s |\n",
				st.OfferedQPS, st.AchievedQPS, st.Requests, st.Errors, st.Shed,
				ms(st.P50), ms(st.P99), ms(st.P999), ms(st.Max), sat)
		}
		fmt.Fprintf(w, "\nSaturation knee: **%.0f QPS** (highest sustained offered load).\n", sc.KneeQPS)
		for _, res := range sc.SLOs {
			verdict := "OK"
			if !res.OK {
				verdict = "VIOLATED"
			}
			fmt.Fprintf(w, "- SLO `%s`: measured %v at %g QPS — **%s**\n",
				res.SLO, res.Measured.Round(time.Microsecond), res.MeasuredAtQPS, verdict)
		}
	}
	return nil
}
