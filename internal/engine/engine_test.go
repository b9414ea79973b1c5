package engine

import (
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/fleet"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/sim"
	"github.com/scec/scec/internal/transport"
)

// testCase bundles one field's encoding plus plaintext references.
type testCase[E comparable] struct {
	f    field.Field[E]
	enc  *coding.Encoding[E]
	a    *matrix.Dense[E]
	x    []E
	xm   *matrix.Dense[E]
	want []E // A·x
}

// newCase encodes a random m×l matrix over the r-row scheme and draws a
// vector and an l×3 batch input.
func newCase[E comparable](t *testing.T, f field.Field[E], randE func(*rand.Rand) E) *testCase[E] {
	t.Helper()
	const m, l, r = 9, 5, 4
	rng := rand.New(rand.NewPCG(77, 5))
	scheme, err := coding.New(m, r)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.New[E](m, l)
	for i := 0; i < m; i++ {
		for j := 0; j < l; j++ {
			a.Set(i, j, randE(rng))
		}
	}
	enc, err := coding.Encode(f, scheme, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCase[E]{f: f, enc: enc, a: a, x: make([]E, l), xm: matrix.New[E](l, 3)}
	for j := range tc.x {
		tc.x[j] = randE(rng)
	}
	for i := 0; i < l; i++ {
		for j := 0; j < 3; j++ {
			tc.xm.Set(i, j, randE(rng))
		}
	}
	tc.want = matrix.MulVec(f, a, tc.x)
	return tc
}

// rows is the case's m+r: the length of a raw intermediate result.
func (tc *testCase[E]) rows() int { return tc.enc.Code.M() + tc.enc.Code.R() }

// serveFleet spins one loopback device server per coded block and returns a
// fleet executor over them; the devices stop when the test ends.
func serveFleet[E comparable](t *testing.T, f field.Field[E], enc *coding.Encoding[E]) Executor[E] {
	t.Helper()
	exec, stop := startFleet(t, f, enc)
	t.Cleanup(stop)
	return exec
}

// startFleet is serveFleet with stopping the devices left to the caller.
func startFleet[E comparable](t *testing.T, f field.Field[E], enc *coding.Encoding[E]) (Executor[E], func()) {
	t.Helper()
	cfg := fleet.Config{
		Replicas:      make([][]string, len(enc.Blocks)),
		QueryTimeout:  10 * time.Second,
		RPCTimeout:    2 * time.Second,
		HedgeAfter:    -1,
		ProbeInterval: -1,
		Metrics:       obs.New(),
	}
	var servers []*transport.DeviceServer[E]
	stop := func() {
		for _, srv := range servers {
			_ = srv.Close()
		}
	}
	for j := range cfg.Replicas {
		srv, err := transport.NewDeviceServer(f, "127.0.0.1:0")
		if err != nil {
			stop()
			t.Fatal(err)
		}
		servers = append(servers, srv)
		cfg.Replicas[j] = []string{srv.Addr()}
	}
	s, err := fleet.Serve(f, enc, cfg)
	if err != nil {
		stop()
		t.Fatal(err)
	}
	return WrapSession(s, true), stop
}

// backends returns a named executor of every kind over the same encoding.
func backends[E comparable](t *testing.T, tc *testCase[E]) map[string]Executor[E] {
	t.Helper()
	simExec, err := NewSim(tc.f, tc.enc, SimConfig{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Executor[E]{
		"local": NewLocal(tc.f, tc.enc, obs.New()),
		"sim":   simExec,
		"fleet": serveFleet(t, tc.f, tc.enc),
	}
}

// runDifferential asserts MulVec and MulMat agree exactly with the
// plaintext reference over every executor in execs.
func runDifferential[E comparable](t *testing.T, tc *testCase[E], execs map[string]Executor[E]) {
	t.Helper()
	wantMat := matrix.Mul(tc.f, tc.a, tc.xm)
	for name, exec := range execs {
		t.Run(name, func(t *testing.T) {
			q, err := New(tc.f, tc.enc, exec, Options{Metrics: obs.New()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = q.Close() })
			if got := q.Backend(); got != name {
				t.Fatalf("backend %q, want %q", got, name)
			}
			got, err := q.MulVec(tc.x)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if !tc.f.Equal(got[i], tc.want[i]) {
					t.Fatalf("MulVec[%d] = %v, want %v", i, got[i], tc.want[i])
				}
			}
			gotM, err := q.MulMat(tc.xm)
			if err != nil {
				t.Fatal(err)
			}
			if gotM.Rows() != wantMat.Rows() || gotM.Cols() != wantMat.Cols() {
				t.Fatalf("MulMat shape %dx%d, want %dx%d", gotM.Rows(), gotM.Cols(), wantMat.Rows(), wantMat.Cols())
			}
			for i := 0; i < gotM.Rows(); i++ {
				for j := 0; j < gotM.Cols(); j++ {
					if !tc.f.Equal(gotM.At(i, j), wantMat.At(i, j)) {
						t.Fatalf("MulMat[%d,%d] = %v, want %v", i, j, gotM.At(i, j), wantMat.At(i, j))
					}
				}
			}
		})
	}
}

// TestDifferentialAcrossBackends: the same encoding answers bit-identically
// over Local, Sim, and Fleet executors for the exact fields, both query
// shapes. Real deployments never leave the host, so Real runs the local
// executor only, within the field's tolerance.
func TestDifferentialAcrossBackends(t *testing.T) {
	t.Run("prime", func(t *testing.T) {
		f := field.Prime{}
		tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
		runDifferential(t, tc, backends(t, tc))
	})
	t.Run("gf256", func(t *testing.T) {
		tc := newCase[byte](t, field.GF256{}, func(rng *rand.Rand) byte { return byte(rng.UintN(256)) })
		runDifferential(t, tc, backends(t, tc))
	})
	t.Run("real", func(t *testing.T) {
		tc := newCase[float64](t, field.Real{Tol: 1e-6}, func(rng *rand.Rand) float64 {
			return float64(rng.IntN(2000)-1000) / 16
		})
		runDifferential(t, tc, map[string]Executor[float64]{"local": NewLocal(tc.f, tc.enc, obs.New())})
	})
}

// TestBackendsAgreeBitIdentical: over the prime field the three backends'
// outputs are equal as raw uint64s, not merely field-equal.
func TestBackendsAgreeBitIdentical(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	var ref []uint64
	for _, name := range []string{"local", "sim", "fleet"} {
		execs := backends(t, tc)
		q, err := New[uint64](f, tc.enc, execs[name], Options{Metrics: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.MulVec(tc.x)
		if err != nil {
			t.Fatal(err)
		}
		_ = q.Close()
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("backend %s diverges at %d: %d vs %d", name, i, got[i], ref[i])
			}
		}
	}
}

// TestQueryValidation covers the query layer's input checks and
// construction errors.
func TestQueryValidation(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	if _, err := New[uint64](f, nil, NewLocal(f, tc.enc, nil), Options{}); err == nil {
		t.Fatal("New accepted a nil encoding")
	}
	stripped := &coding.Encoding[uint64]{Blocks: tc.enc.Blocks}
	if _, err := New[uint64](f, stripped, NewLocal(f, tc.enc, nil), Options{}); err == nil {
		t.Fatal("New accepted an encoding without a scheme")
	}
	q, err := New[uint64](f, tc.enc, NewLocal(f, tc.enc, obs.New()), Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = q.Close() })
	if _, err := q.MulVec(make([]uint64, len(tc.x)+1)); err == nil {
		t.Fatal("MulVec accepted a wrong-length vector")
	}
	if _, err := q.MulMat(matrix.New[uint64](len(tc.x)+2, 2)); err == nil {
		t.Fatal("MulMat accepted a wrong-height matrix")
	}
}

// TestSimExecutorFailurePropagates: a sim profile with FailProb=1 surfaces
// sim.ErrDeviceFailed through the engine, and the failed run's report is
// still retained.
func TestSimExecutorFailurePropagates(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	exec, err := NewSim(f, tc.enc, SimConfig{
		Profiles: func(j int) []sim.DeviceProfile {
			p := sim.DefaultProfile()
			if j == 0 {
				p.FailProb = 1
			}
			return []sim.DeviceProfile{p}
		},
		Metrics: obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := New[uint64](f, tc.enc, exec, Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = q.Close() })
	if _, err := q.MulVec(tc.x); !errors.Is(err, sim.ErrDeviceFailed) {
		t.Fatalf("err = %v, want sim.ErrDeviceFailed", err)
	}
	rep, ok := exec.LastReport()
	if !ok {
		t.Fatal("failed run retained no report")
	}
	if !rep.Devices[0].Failed {
		t.Fatal("retained report does not mark device 0 failed")
	}
}

// TestSimExecutorReportAccounting: the retained report carries the virtual
// decode cost — completion is the last consumed arrival plus DecodeOps at
// 1e9 ops/s — the engine records the one decode stage, and batch queries
// scale the traffic totals by the width.
func TestSimExecutorReportAccounting(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	reg := obs.New()
	exec, err := NewSim(f, tc.enc, SimConfig{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	q, err := New[uint64](f, tc.enc, exec, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = q.Close() })

	if _, ok := exec.LastReport(); ok {
		t.Fatal("report retained before any run")
	}
	if _, err := q.MulVec(tc.x); err != nil {
		t.Fatal(err)
	}
	rep, ok := exec.LastReport()
	if !ok {
		t.Fatal("no report after MulVec")
	}
	m := tc.enc.Scheme.M()
	r := tc.enc.Scheme.R()
	if rep.DecodeOps != int64(m) {
		t.Fatalf("vector DecodeOps = %d, want %d", rep.DecodeOps, m)
	}
	if rep.TotalValuesSent != m+r {
		t.Fatalf("vector TotalValuesSent = %d, want %d", rep.TotalValuesSent, m+r)
	}
	var lastArrival time.Duration
	for _, d := range rep.Devices {
		if d.Used {
			lastArrival = max(lastArrival, d.ResultArrives)
		}
	}
	if want := lastArrival + time.Duration(float64(m)/1e9*float64(time.Second)); rep.CompletionTime != want {
		t.Fatalf("vector CompletionTime = %v, want the last arrival %v plus %d decode ops at 1e9/s", rep.CompletionTime, lastArrival, m)
	}
	if got := stageCount(reg, obs.StageDecode); got != 1 {
		t.Fatalf("decode stage observed %d times after one query, want 1 (the engine's)", got)
	}
	if _, err := q.MulMat(tc.xm); err != nil {
		t.Fatal(err)
	}
	rep, _ = exec.LastReport()
	n := tc.xm.Cols()
	if rep.DecodeOps != int64(m*n) {
		t.Fatalf("batch DecodeOps = %d, want %d", rep.DecodeOps, m*n)
	}
	if rep.TotalValuesSent != (m+r)*n {
		t.Fatalf("batch TotalValuesSent = %d, want %d", rep.TotalValuesSent, (m+r)*n)
	}
}

// stageCount returns how many observations reg holds for a pipeline stage.
func stageCount(reg *obs.Registry, stage string) int64 {
	for _, fam := range reg.Snapshot().Metrics {
		if fam.Name != obs.MetricStageSeconds {
			continue
		}
		for _, sr := range fam.Series {
			if sr.Labels["stage"] == stage {
				return sr.Count
			}
		}
	}
	return 0
}

// TestSimExecutorTrace: a traced query over 2-replica blocks, one replica of
// block 0 failing, fabricates one sim.run trace with a sim.device span per
// replica — each naming its replica, the failed one marked as an error — and
// the query span links to it through its sim-trace event.
func TestSimExecutorTrace(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	exec, err := NewSim(f, tc.enc, SimConfig{
		Profiles: func(j int) []sim.DeviceProfile {
			group := []sim.DeviceProfile{sim.DefaultProfile(), sim.DefaultProfile()}
			if j == 0 {
				group[0].FailProb = 1
			}
			return group
		},
		Metrics: obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{Service: "sim-test"})
	q, err := New[uint64](f, tc.enc, exec, Options{Metrics: obs.New(), Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = q.Close() })
	got, err := q.MulVec(tc.x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != tc.want[i] {
			t.Fatalf("MulVec[%d] = %d, want %d", i, got[i], tc.want[i])
		}
	}

	var runs, devices []trace.SpanData
	var linked string
	for _, sd := range tr.Snapshot() {
		switch sd.Name {
		case trace.SpanSimRun:
			runs = append(runs, sd)
		case trace.SpanSimDevice:
			devices = append(devices, sd)
		case trace.SpanQueryVec:
			for _, ev := range sd.Events {
				if ev.Name == "sim-trace" && len(ev.Attrs) == 1 {
					linked = ev.Attrs[0].Value
				}
			}
		}
	}
	if len(runs) != 1 {
		t.Fatalf("%d sim.run spans, want 1", len(runs))
	}
	if linked != runs[0].TraceID {
		t.Fatalf("query span's sim-trace event carries %q, want the sim.run trace %q", linked, runs[0].TraceID)
	}
	if want := 2 * len(tc.enc.Blocks); len(devices) != want {
		t.Fatalf("%d sim.device spans, want one per replica (%d)", len(devices), want)
	}
	for _, sd := range devices {
		if sd.TraceID != runs[0].TraceID {
			t.Fatalf("sim.device span in trace %s, want %s", sd.TraceID, runs[0].TraceID)
		}
		replica := sd.Attr(trace.AttrReplica)
		if replica != "0" && replica != "1" {
			t.Fatalf("sim.device span replica attribute %q, want 0 or 1", replica)
		}
		failed := sd.Attr(trace.AttrDevice) == "0" && replica == "0"
		if failed != (sd.Error != "") {
			t.Fatalf("device %s replica %s: error %q, want an error only on the failed replica",
				sd.Attr(trace.AttrDevice), replica, sd.Error)
		}
	}
}

// TestDispatchCounters: the per-backend dispatch counter distinguishes
// vector from batch rounds.
func TestDispatchCounters(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	reg := obs.New()
	q, err := New[uint64](f, tc.enc, NewLocal(f, tc.enc, reg), Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = q.Close() })
	for i := 0; i < 3; i++ {
		if _, err := q.MulVec(tc.x); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.MulMat(tc.xm); err != nil {
		t.Fatal(err)
	}
	vec := reg.Counter(obs.MetricEngineDispatchTotal, dispatchHelp,
		obs.L("backend", "local"), obs.L("kind", "vec"))
	mat := reg.Counter(obs.MetricEngineDispatchTotal, dispatchHelp,
		obs.L("backend", "local"), obs.L("kind", "mat"))
	if vec.Value() != 3 {
		t.Fatalf("vec dispatches = %d, want 3", vec.Value())
	}
	if mat.Value() != 1 {
		t.Fatalf("mat dispatches = %d, want 1", mat.Value())
	}
}
