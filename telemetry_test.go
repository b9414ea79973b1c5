package scec_test

import (
	"io"
	"math/rand/v2"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/scec/scec"
)

// TestTelemetryFacade drives the reference pipeline and checks that
// MetricsHandler exposes the recorded stage spans in both exposition formats.
func TestTelemetryFacade(t *testing.T) {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(3, 5))
	a := scec.RandomMatrix(f, rng, 30, 8)
	dep, err := scec.Deploy(f, a, []float64{1, 2, 3, 4, 5, 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := scec.RandomVector(f, rng, 8)
	if _, err := dep.MulVec(x); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		scec.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		body, err := io.ReadAll(rec.Result().Body)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Code != 200 {
			t.Fatalf("%s: code %d body %q", path, rec.Code, body)
		}
		return string(body)
	}

	prom := get("/metrics")
	for _, want := range []string{
		`scec_stage_duration_seconds_count{stage="allocate"}`,
		`scec_stage_duration_seconds_count{stage="encode"}`,
		`scec_stage_duration_seconds_count{stage="compute"}`,
		`scec_stage_duration_seconds_count{stage="decode"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("Prometheus exposition missing %q", want)
		}
	}

	snapshot := get("/metrics.json")
	if !strings.Contains(snapshot, `"scec_stage_duration_seconds"`) {
		t.Error("JSON snapshot missing the stage histogram")
	}
	if !strings.Contains(snapshot, `"p99"`) {
		t.Error("JSON snapshot missing the stage tail quantiles")
	}
}
