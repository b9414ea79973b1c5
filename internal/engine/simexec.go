package engine

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/sim"
)

// SimConfig configures the simulator-backed executor.
type SimConfig struct {
	// Profiles returns the replica group hosting coded block j: one profile
	// per device holding a copy. Nil, or an empty group, means one
	// sim.DefaultProfile() device — the paper's unreplicated protocol.
	Profiles func(j int) []sim.DeviceProfile
	// Seed drives the simulator's failure sampling.
	Seed uint64
	// Metrics receives the simulator's virtual-clock telemetry. Nil means
	// obs.Default().
	Metrics *obs.Registry
}

// userComputeRate is the user's field-ops/second rate: the retained report
// prices the virtual decode at it.
const userComputeRate = 1e9

// SimExecutor evaluates the compute round on internal/sim's virtual clock:
// numerically it produces exactly what the local kernels produce (the same
// coding code paths run), while the retained report prices the round
// against the configured replica groups. It retains the most recent run's
// report — including failed runs — for introspection.
type SimExecutor[E comparable] struct {
	f   field.Field[E]
	enc *coding.Encoding[E]
	cfg sim.Config

	mu   sync.Mutex
	last sim.Report
	ran  bool
}

// NewSim builds a simulator executor over an encoding.
func NewSim[E comparable](f field.Field[E], enc *coding.Encoding[E], cfg SimConfig) (*SimExecutor[E], error) {
	if enc == nil || enc.Code == nil {
		return nil, errors.New("engine: encoding has no code attached")
	}
	groups := make([][]sim.DeviceProfile, len(enc.Blocks))
	for j := range groups {
		if cfg.Profiles != nil {
			groups[j] = cfg.Profiles(j)
		}
		if len(groups[j]) == 0 {
			groups[j] = []sim.DeviceProfile{sim.DefaultProfile()}
		}
	}
	return &SimExecutor[E]{
		f:   f,
		enc: enc,
		cfg: sim.Config{Profiles: groups, Seed: cfg.Seed, Metrics: cfg.Metrics},
	}, nil
}

// Name implements Executor.
func (e *SimExecutor[E]) Name() string { return "sim" }

// Compute runs one simulated width-n round into y and retains its report.
func (e *SimExecutor[E]) Compute(ctx context.Context, x, y *matrix.Dense[E]) error {
	rep, err := sim.GatherContext(ctx, e.f, e.enc, x, y, e.cfg)
	e.retain(rep, err, x.Cols())
	e.emitTrace(ctx, rep, err)
	return err
}

// retain stores the run's report. On success it folds the virtual decode
// cost in: the code's per-column decode work priced at the user's compute
// rate. The wall-clock decode itself happens once, in the Query layer.
func (e *SimExecutor[E]) retain(rep sim.Report, err error, n int) {
	if err == nil {
		rep.DecodeOps = sim.DecodeOps(e.enc) * int64(n)
		rep.CompletionTime += time.Duration(float64(rep.DecodeOps) / userComputeRate * float64(time.Second))
	}
	e.mu.Lock()
	e.last, e.ran = rep, true
	e.mu.Unlock()
}

// emitTrace fabricates the round's virtual-clock trace when the caller is
// tracing: a sim.run root with one sim.device span per replica timeline,
// stamped at offsets from the Unix epoch so the exported trace reads as the
// simulator's t=0-based schedule. Virtual durations cannot nest inside the
// wall-clock query span without lying about time, so the fabricated spans
// form their own trace, linked from the caller's span by a "sim-trace"
// event carrying the trace ID.
func (e *SimExecutor[E]) emitTrace(ctx context.Context, rep sim.Report, err error) {
	parent := trace.SpanFromContext(ctx)
	if parent == nil {
		return
	}
	t := parent.Tracer()
	base := time.Unix(0, 0).UTC()
	traceID := trace.NewTraceID()
	runID := trace.NewSpanID()
	parent.AddEvent("sim-trace", trace.A("traceId", traceID))
	for _, d := range rep.Devices {
		sd := trace.SpanData{
			TraceID:  traceID,
			SpanID:   trace.NewSpanID(),
			ParentID: runID,
			Name:     trace.SpanSimDevice,
			Service:  t.Service(),
			Start:    base.Add(d.XArrives),
			End:      base.Add(d.ResultArrives),
			Attrs: []trace.Attr{
				trace.A(trace.AttrDevice, strconv.Itoa(d.Device)),
				trace.A(trace.AttrReplica, strconv.Itoa(d.Replica)),
			},
			Events: []trace.Event{{Name: "compute-done", Time: base.Add(d.ComputeDone)}},
		}
		if d.Failed {
			sd.Error = "device failed"
		}
		t.Record(sd)
	}
	run := trace.SpanData{
		TraceID: traceID,
		SpanID:  runID,
		Name:    trace.SpanSimRun,
		Service: t.Service(),
		Start:   base,
		End:     base.Add(rep.CompletionTime),
	}
	if err != nil {
		run.Error = err.Error()
	}
	t.Record(run)
}

// LastReport returns the most recent round's virtual-clock report (also
// retained for failed rounds) and whether any round has run.
func (e *SimExecutor[E]) LastReport() (sim.Report, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.last, e.ran
}

// Close implements Executor; the simulator holds no resources.
func (e *SimExecutor[E]) Close() error { return nil }
