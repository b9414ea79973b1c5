package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := New()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Registration and update race from every goroutine on purpose:
			// the registry must hand back the same series.
			c := r.Counter("test_total", "help", L("worker", "shared"))
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("test_total", "help", L("worker", "shared")).Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5 (negative add must be ignored)", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := New()
	g := r.Gauge("test_gauge", "help")
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(goroutines*perG)*0.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("gauge = %g, want %g", got, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := New()
	h := r.Histogram("test_seconds", "help", []float64{0.01, 0.1, 1})
	const goroutines, perG = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g%4) * 0.05) // 0, 0.05, 0.1, 0.15
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	want := float64(goroutines/4*perG) * (0 + 0.05 + 0.1 + 0.15)
	if got := h.Sum(); math.Abs(got-want) > 1e-6 {
		t.Fatalf("histogram sum = %g, want %g", got, want)
	}
	// Cumulative buckets: le=0.01 sees the 0-valued quarter, le=0.1 also
	// the 0.05 and 0.1 quarters, le=1 and +Inf see everything.
	counts := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		counts[i] = cum
	}
	quarter := int64(goroutines / 4 * perG)
	wantCum := []int64{quarter, 3 * quarter, 4 * quarter, 4 * quarter}
	for i, w := range wantCum {
		if counts[i] != w {
			t.Fatalf("cumulative bucket %d = %d, want %d", i, counts[i], w)
		}
	}
}

func TestHistogramBucketBoundaryInclusive(t *testing.T) {
	r := New()
	h := r.Histogram("test_edge_seconds", "help", []float64{1, 2})
	h.Observe(1) // exactly on the bound: must land in le="1"
	if got := h.counts[0].Load(); got != 1 {
		t.Fatalf("observation at bound landed in bucket 0 count=%d, want 1", got)
	}
}

// TestPrometheusGolden pins the text exposition format end to end.
func TestPrometheusGolden(t *testing.T) {
	r := New()
	r.Counter("scec_demo_requests_total", "Requests served.", L("kind", "compute")).Add(3)
	r.Gauge("scec_demo_temperature", "Current temperature.").Set(36.5)
	h := r.Histogram("scec_demo_latency_seconds", "Round-trip latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP scec_demo_requests_total Requests served.
# TYPE scec_demo_requests_total counter
scec_demo_requests_total{kind="compute"} 3
# HELP scec_demo_temperature Current temperature.
# TYPE scec_demo_temperature gauge
scec_demo_temperature 36.5
# HELP scec_demo_latency_seconds Round-trip latency.
# TYPE scec_demo_latency_seconds histogram
scec_demo_latency_seconds_bucket{le="0.1"} 1
scec_demo_latency_seconds_bucket{le="1"} 2
scec_demo_latency_seconds_bucket{le="+Inf"} 3
scec_demo_latency_seconds_sum 5.55
scec_demo_latency_seconds_count 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := New()
	r.Counter("a_total", "A.").Inc()
	r.Histogram("b_seconds", "B.", []float64{1}).Observe(0.5)

	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(b.String()), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(snap.Metrics) != 2 {
		t.Fatalf("snapshot has %d metrics, want 2", len(snap.Metrics))
	}
	if snap.Metrics[0].Name != "a_total" || snap.Metrics[0].Series[0].Value != 1 {
		t.Fatalf("unexpected counter snapshot %+v", snap.Metrics[0])
	}
	hist := snap.Metrics[1]
	if hist.Type != "histogram" || hist.Series[0].Count != 1 || hist.Series[0].Sum != 0.5 {
		t.Fatalf("unexpected histogram snapshot %+v", hist)
	}
	if got := len(hist.Series[0].Buckets); got != 2 {
		t.Fatalf("histogram snapshot has %d buckets, want 2 (1 bound + Inf)", got)
	}
}

func TestLabelsAreSortedAndIndependent(t *testing.T) {
	r := New()
	c1 := r.Counter("lbl_total", "h", L("b", "2"), L("a", "1"))
	c2 := r.Counter("lbl_total", "h", L("a", "1"), L("b", "2"))
	if c1 != c2 {
		t.Fatal("label order must not create distinct series")
	}
	c3 := r.Counter("lbl_total", "h", L("a", "other"))
	if c1 == c3 {
		t.Fatal("different label values must create distinct series")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("mismatch_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("registering the same name with a different type must panic")
		}
	}()
	r.Gauge("mismatch_total", "h")
}

func TestStageSpan(t *testing.T) {
	r := New()
	sp := StartStage(r, StageEncode)
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d <= 0 {
		t.Fatalf("span duration %v, want > 0", d)
	}
	s := r.find(MetricStageSeconds, []Label{L("stage", StageEncode)})
	if s == nil || s.hist.Count() != 1 {
		t.Fatal("span did not record into the stage histogram")
	}
	if got := s.hist.Sum(); got <= 0 {
		t.Fatalf("stage histogram sum %g, want > 0", got)
	}
	var b strings.Builder
	if err := WriteStageTable(&b, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), StageEncode) {
		t.Fatalf("stage table missing %q:\n%s", StageEncode, b.String())
	}
	// The table must not list (or mint series for) stages that never ran.
	if strings.Contains(b.String(), StageDecode) {
		t.Fatalf("stage table lists a stage that never ran:\n%s", b.String())
	}
	if r.find(MetricStageSeconds, []Label{L("stage", StageDecode)}) != nil {
		t.Fatal("reading the stage table minted an empty series")
	}
}

func TestObserveStageConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ObserveStage(r, StageCompute, time.Millisecond)
			}
		}()
	}
	wg.Wait()
	s := r.find(MetricStageSeconds, []Label{L("stage", StageCompute)})
	if s == nil || s.hist.Count() != 8*200 {
		t.Fatalf("stage histogram count mismatch, got %+v", s)
	}
}

// TestStageRecorderMatchesObserveStage: the same stage durations recorded
// through a StageRecorder and through ObserveStage export the same
// Prometheus text — names, help, labels, buckets and values — and the
// recorder mints nothing for a stage before it records.
func TestStageRecorderMatchesObserveStage(t *testing.T) {
	viaRecorder, viaLookup := New(), New()
	rec := NewStageRecorder(viaRecorder)
	for i, stage := range []string{StageGather, StageCompute, StageGather, StageDecode, "custom"} {
		d := time.Duration(i+1) * time.Millisecond
		rec.Observe(stage, d)
		ObserveStage(viaLookup, stage, d)
		if i == 0 && viaRecorder.find(MetricStageSeconds, []Label{L("stage", StageCompute)}) != nil {
			t.Fatal("recording one stage minted another's series")
		}
	}
	var got, want strings.Builder
	if err := viaRecorder.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := viaLookup.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("StageRecorder export:\n%s\nObserveStage export:\n%s", got.String(), want.String())
	}
}
