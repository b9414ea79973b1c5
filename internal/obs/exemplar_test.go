package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestObserveExemplarBucketPlacement(t *testing.T) {
	r := New()
	h := r.Histogram("unit_seconds", "test", []float64{0.1, 1, 10})
	h.ObserveExemplar(0.05, "trace-a", "dev-1") // bucket le=0.1
	h.ObserveExemplar(5, "trace-b", "dev-2")    // bucket le=10
	h.ObserveExemplar(100, "trace-c", "dev-3")  // +Inf overflow bucket
	h.ObserveExemplar(0.09, "trace-d", "dev-4") // evicts trace-a in le=0.1

	ex := h.Exemplars()
	if len(ex) != 3 {
		t.Fatalf("got %d bucket exemplars, want 3: %+v", len(ex), ex)
	}
	byLE := map[string]BucketExemplar{}
	for _, e := range ex {
		byLE[e.LE] = e
	}
	if e := byLE["0.1"]; e.TraceID != "trace-d" || e.Device != "dev-4" || e.Value != 0.09 {
		t.Fatalf("le=0.1 exemplar = %+v, want the newest observation trace-d", e)
	}
	if e := byLE["10"]; e.TraceID != "trace-b" {
		t.Fatalf("le=10 exemplar = %+v", e)
	}
	if e := byLE["+Inf"]; e.TraceID != "trace-c" {
		t.Fatalf("+Inf exemplar = %+v", e)
	}
	// Exemplar observations still count toward the histogram proper.
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
}

func TestObserveExemplarUntracedDoesNotEvict(t *testing.T) {
	r := New()
	h := r.Histogram("unit_seconds", "test", []float64{1})
	h.ObserveExemplar(0.5, "trace-a", "dev-1")
	// An observation with no trace and no device must not evict the
	// attributable exemplar, but must still be recorded.
	h.ObserveExemplar(0.6, "", "")
	h.ObserveDurationExemplar(700*time.Millisecond, "", "")
	ex := h.Exemplars()
	if len(ex) != 1 || ex[0].TraceID != "trace-a" {
		t.Fatalf("untraced traffic evicted the exemplar: %+v", ex)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
}

// TestObserveExemplarUntracedRefresh: a device-only observation fills an
// empty bucket, a traced one replaces the bucket's exemplar at once, and
// device-only traffic replaces an exemplar only once it is exemplarRefresh
// old — so steady untraced traffic does not mint one per observation.
func TestObserveExemplarUntracedRefresh(t *testing.T) {
	h := New().Histogram("unit_seconds", "test", []float64{1})
	only := func() Exemplar {
		t.Helper()
		ex := h.Exemplars()
		if len(ex) != 1 {
			t.Fatalf("got %d bucket exemplars, want 1: %+v", len(ex), ex)
		}
		return ex[0].Exemplar
	}
	h.ObserveExemplar(0.1, "", "dev-1")
	if e := only(); e.Device != "dev-1" || e.TraceID != "" {
		t.Fatalf("device-only observation left %+v in an empty bucket", e)
	}
	h.ObserveExemplar(0.2, "trace-a", "dev-2")
	if e := only(); e.TraceID != "trace-a" || e.Device != "dev-2" {
		t.Fatalf("traced observation did not replace the exemplar: %+v", e)
	}
	h.ObserveExemplar(0.3, "", "dev-3")
	if e := only(); e.TraceID != "trace-a" {
		t.Fatalf("fresh traced exemplar evicted by untraced traffic: %+v", e)
	}
	// Age the retained exemplar past the refresh interval.
	old := *h.ex[0].Load()
	old.AtUnixNano -= int64(2 * exemplarRefresh)
	h.ex[0].Store(&old)
	h.ObserveExemplar(0.4, "", "dev-4")
	if e := only(); e.Device != "dev-4" || e.TraceID != "" || e.Value != 0.4 {
		t.Fatalf("stale exemplar not refreshed by untraced traffic: %+v", e)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
}

func TestSnapshotAndExemplarsOfCarryExemplars(t *testing.T) {
	r := New()
	h := r.Histogram("unit_seconds", "test", []float64{1}, L("block", "0"))
	h.ObserveExemplar(0.5, "deadbeef", "dev-9")
	r.Histogram("unit_seconds", "test", []float64{1}, L("block", "1")).Observe(0.5)

	var found bool
	for _, fam := range r.Snapshot().Metrics {
		if fam.Name != "unit_seconds" {
			continue
		}
		for _, s := range fam.Series {
			if s.Labels["block"] == "0" {
				if len(s.Exemplars) != 1 || s.Exemplars[0].TraceID != "deadbeef" {
					t.Fatalf("snapshot exemplars = %+v", s.Exemplars)
				}
				found = true
			} else if len(s.Exemplars) != 0 {
				t.Fatalf("exemplar leaked to the wrong series: %+v", s.Exemplars)
			}
		}
	}
	if !found {
		t.Fatal("snapshot did not include the instrumented series")
	}

	// The JSON snapshot carries them; the Prometheus text format stays plain.
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"trace_id":"deadbeef"`) {
		t.Fatalf("JSON snapshot lacks the exemplar: %s", b)
	}
	var text strings.Builder
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(text.String(), "deadbeef") {
		t.Fatal("Prometheus text format must not carry exemplars (plain 0.0.4)")
	}
}
