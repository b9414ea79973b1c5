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

// newCase encodes a random m×l matrix over the r-row Eq. (8) scheme and
// draws a vector and an l×3 batch input.
func newCase[E comparable](t *testing.T, f field.Field[E], randE func(*rand.Rand) E) *testCase[E] {
	t.Helper()
	return newCaseWith(t, f, randE, func(m int) (coding.Code[E], error) { return coding.NewStructured(f, m, 4) })
}

// newCollusionCase is newCase over a Cauchy code secure against two
// colluding devices, two rows per device.
func newCollusionCase[E comparable](t *testing.T, f field.Field[E], randE func(*rand.Rand) E) *testCase[E] {
	t.Helper()
	return newCaseWith(t, f, randE, func(m int) (coding.Code[E], error) {
		rows, r, err := coding.UniformCollusionRows(m, 2, 2)
		if err != nil {
			return nil, err
		}
		return coding.NewCollusion(f, m, r, 2, rows)
	})
}

// newCaseWith is newCase over the code build makes for m data rows.
func newCaseWith[E comparable](t *testing.T, f field.Field[E], randE func(*rand.Rand) E, build func(m int) (coding.Code[E], error)) *testCase[E] {
	t.Helper()
	const m, l = 9, 5
	rng := rand.New(rand.NewPCG(77, 5))
	scheme, err := build(m)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.New[E](m, l)
	for i := 0; i < m; i++ {
		for j := 0; j < l; j++ {
			a.Set(i, j, randE(rng))
		}
	}
	enc, err := scheme.Encode(a, rng)
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
// plaintext reference over every executor in execs, and that the vector
// as an l×1 MulMat — the one compute shape below the query layer — answers
// == what MulVec did and, over the exact fields, == the plaintext A·x.
func runDifferential[E comparable](t *testing.T, tc *testCase[E], execs map[string]Executor[E]) {
	t.Helper()
	wantMat := matrix.Mul(tc.f, tc.a, tc.xm)
	_, approx := any(tc.f).(field.Real)
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
			col, err := q.MulMat(matrix.FromSlice(len(tc.x), 1, tc.x))
			if err != nil {
				t.Fatal(err)
			}
			if col.Rows() != len(got) || col.Cols() != 1 {
				t.Fatalf("l×1 MulMat shape %dx%d, want %dx1", col.Rows(), col.Cols(), len(got))
			}
			for i := range got {
				if v := col.At(i, 0); v != got[i] || !approx && v != tc.want[i] {
					t.Fatalf("l×1 MulMat[%d] = %v, MulVec %v, A·x %v", i, v, got[i], tc.want[i])
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
// shapes, under the Eq. (8) code and a t = 2 Cauchy code. Real deployments
// never leave the host, so Real runs the local executor only, within the
// field's tolerance.
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
	t.Run("prime-t2", func(t *testing.T) {
		f := field.Prime{}
		tc := newCollusionCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
		runDifferential(t, tc, backends(t, tc))
	})
	t.Run("gf256-t2", func(t *testing.T) {
		tc := newCollusionCase[byte](t, field.GF256{}, func(rng *rand.Rand) byte { return byte(rng.UintN(256)) })
		runDifferential(t, tc, backends(t, tc))
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

// TestSimExecutorFailurePropagates: a sim profile failing with probability 1
// surfaces fleet.ErrBlockUnavailable through the engine once the fleet's
// retries run out, and the failed gather's report is still retained, block
// 0's attempts failed by their deadlines.
func TestSimExecutorFailurePropagates(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	exec, err := NewSim(f, tc.enc, SimConfig{
		Profiles: func(j int) []sim.DeviceProfile {
			p := sim.DefaultProfile()
			if j == 0 {
				p.Faults = []sim.Fault{{Fail: 1}}
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
	if _, err := q.MulVec(tc.x); !errors.Is(err, fleet.ErrBlockUnavailable) {
		t.Fatalf("err = %v, want fleet.ErrBlockUnavailable", err)
	}
	rep, ok := exec.LastReport()
	if !ok {
		t.Fatal("failed run retained no report")
	}
	for _, d := range rep.Devices {
		if d.Device == 0 && d.Outcome != sim.Failed {
			t.Fatalf("block 0 attempt in round %d ended %v, want failed", d.Round, d.Outcome)
		}
	}
}

// TestSimExecutorReportAccounting: the retained report carries the virtual
// decode cost — completion is the last winning arrival plus DecodeOps at
// 1e9 ops/s — the engine records the one decode stage, and batch queries
// scale the traffic totals by the width. The decode is priced from the
// code: m subtractions per column for Eq. (8), plus the m·r multiply-adds
// of C·y[:r] for a Cauchy C.
func TestSimExecutorReportAccounting(t *testing.T) {
	f := field.Prime{}
	eq8 := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	m, r := eq8.enc.Code.M(), eq8.enc.Code.R()
	rows, rc, err := coding.UniformCollusionRows(m, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	code, err := coding.NewCollusion[uint64](f, m, rc, 2, rows)
	if err != nil {
		t.Fatal(err)
	}
	cenc, err := code.Encode(eq8.a, rand.New(rand.NewPCG(78, 6)))
	if err != nil {
		t.Fatal(err)
	}
	cauchy := *eq8
	cauchy.enc = cenc
	for _, c := range []struct {
		name string
		tc   *testCase[uint64]
		r    int
		ops  int // per result column
	}{
		{"eq8", eq8, r, m},
		{"cauchy-t2", &cauchy, rc, m*rc + m},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc, r, ops := c.tc, c.r, c.ops
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
			if rep.DecodeOps != int64(ops) {
				t.Fatalf("vector DecodeOps = %d, want %d", rep.DecodeOps, ops)
			}
			if rep.TotalValuesSent != m+r {
				t.Fatalf("vector TotalValuesSent = %d, want %d", rep.TotalValuesSent, m+r)
			}
			var lastArrival time.Duration
			for _, d := range rep.Devices {
				if d.Outcome == sim.Won {
					lastArrival = max(lastArrival, d.ResultArrives)
				}
			}
			if want := lastArrival + time.Duration(float64(ops)/1e9*float64(time.Second)); rep.CompletionTime != want {
				t.Fatalf("vector CompletionTime = %v, want the last arrival %v plus %d decode ops at 1e9/s", rep.CompletionTime, lastArrival, ops)
			}
			if got := stageCount(reg, obs.StageDecode); got != 1 {
				t.Fatalf("decode stage observed %d times after one query, want 1 (the engine's)", got)
			}
			if _, err := q.MulMat(tc.xm); err != nil {
				t.Fatal(err)
			}
			rep, _ = exec.LastReport()
			n := tc.xm.Cols()
			if rep.DecodeOps != int64(ops*n) {
				t.Fatalf("batch DecodeOps = %d, want %d", rep.DecodeOps, ops*n)
			}
			if rep.TotalValuesSent != (m+r)*n {
				t.Fatalf("batch TotalValuesSent = %d, want %d", rep.TotalValuesSent, (m+r)*n)
			}
		})
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

// TestSimExecutorTrace: a traced query over 2-replica blocks, replica 0 of
// block 0 failing, runs the fleet's gather as its own trace on the virtual
// clock: one fleet.gather root once the provisioning pushes are done, a
// fleet.block per block, and a
// fleet.attempt per launched attempt. Block 0's hedge launches at the hedge
// delay and wins, and the query span names the trace in its virtual-trace
// event.
func TestSimExecutorTrace(t *testing.T) {
	f := field.Prime{}
	tc := newCase[uint64](t, f, func(rng *rand.Rand) uint64 { return f.Rand(rng) })
	exec, err := NewSim(f, tc.enc, SimConfig{
		Profiles: func(j int) []sim.DeviceProfile {
			group := []sim.DeviceProfile{sim.DefaultProfile(), sim.DefaultProfile()}
			if j == 0 {
				group[0].Faults = []sim.Fault{{Fail: 1}}
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

	byName := map[string][]trace.SpanData{}
	var linked string
	for _, sd := range tr.Snapshot() {
		byName[sd.Name] = append(byName[sd.Name], sd)
		for _, ev := range sd.Events {
			if sd.Name == trace.SpanQueryVec && ev.Name == trace.EventVirtualTrace && len(ev.Attrs) == 1 {
				linked = ev.Attrs[0].Value
			}
		}
	}
	gathers, blocks, attempts := byName[trace.SpanFleetGather], byName[trace.SpanFleetBlock], byName[trace.SpanFleetAttempt]
	if len(gathers) != 1 {
		t.Fatalf("%d fleet.gather spans, want 1", len(gathers))
	}
	root := gathers[0]
	if linked != root.TraceID || root.ParentID != "" {
		t.Fatalf("query span links %q; the gather is in trace %q with parent %q, want a linked root", linked, root.TraceID, root.ParentID)
	}
	if rep, _ := exec.LastReport(); !root.Start.Equal(time.Unix(0, 0).Add(rep.StoreTime)) {
		t.Fatalf("virtual trace starts at %v, want the epoch plus the store time %v", root.Start, rep.StoreTime)
	}
	if len(blocks) != len(tc.enc.Blocks) || len(attempts) != len(tc.enc.Blocks)+1 {
		t.Fatalf("%d block and %d attempt spans, want %d and %d (one hedge)", len(blocks), len(attempts), len(tc.enc.Blocks), len(tc.enc.Blocks)+1)
	}
	for _, sd := range attempts {
		if sd.TraceID != root.TraceID {
			t.Fatalf("attempt span in trace %s, want %s", sd.TraceID, root.TraceID)
		}
		hedge := sd.Attr(trace.AttrHedged) == "true"
		if hedge != (sd.Attr(trace.AttrDevice) == "sim/0/1") {
			t.Fatalf("attempt on %s hedged=%v, want only block 0's replica 1 hedged", sd.Attr(trace.AttrDevice), hedge)
		}
		// A cold leader hedges at twice its modelled round trip, 2·Latency.
		if prior := 2 * 2 * sim.DefaultProfile().Latency; hedge && (sd.Start.Sub(root.Start) != prior || sd.Attr(trace.AttrWin) != "true") {
			t.Fatalf("hedge launched at %v, win=%q; want %v and a win", sd.Start.Sub(root.Start), sd.Attr(trace.AttrWin), prior)
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
