package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/scec/scec/internal/obs"
)

// TestDemoMetricsEndpoint runs the smallest fleet round trip and asserts the
// wired metric names are served on a live /metrics endpoint with non-zero RPC
// latency histograms and stage-span durations.
func TestDemoMetricsEndpoint(t *testing.T) {
	var out strings.Builder
	args := []string{"fleet", "-replicas", "1", "-standbys", "0", "-queries", "1", "-batch", "4",
		"-m", "40", "-l", "8", "-k", "5", "-seed", "4", "-metrics-addr", "127.0.0.1:0"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"serving telemetry on http://", "stage timings:", "allocate", "gather"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("fleet output missing %q:\n%s", want, out.String())
		}
	}

	// The run's ephemeral server shuts down with it; serve the same
	// process-wide registry again for the endpoint smoke test.
	srv, err := obs.StartServer(obs.Default().Handler(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, name := range []string{
		obs.MetricRPCClientRequests,
		obs.MetricRPCClientSeconds + "_count",
		obs.MetricRPCClientSent,
		obs.MetricRPCClientReceived,
		obs.MetricRPCServerRequests,
		obs.MetricRPCServerSeconds + "_count",
		obs.MetricRPCServerRead,
		obs.MetricRPCServerWritten,
	} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	for _, stage := range obs.Stages {
		line := obs.MetricStageSeconds + `_count{stage="` + stage + `"}`
		if !strings.Contains(body, line) {
			t.Errorf("/metrics missing stage series %s", line)
			continue
		}
		// Non-zero: the count line must not read " 0".
		for _, l := range strings.Split(body, "\n") {
			if strings.HasPrefix(l, line) && strings.HasSuffix(l, " 0") {
				t.Errorf("stage %q has zero observations: %s", stage, l)
			}
		}
	}
	// Non-zero RPC latency histogram.
	for _, l := range strings.Split(body, "\n") {
		if strings.HasPrefix(l, obs.MetricRPCClientSeconds+"_count") && strings.HasSuffix(l, " 0") {
			t.Errorf("zero-count client latency histogram: %s", l)
		}
	}
}
