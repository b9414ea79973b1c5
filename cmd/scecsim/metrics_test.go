package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/scec/scec/internal/obs"
)

// TestMetricsJSONSnapshot runs the simulator with -metrics-json and checks
// the snapshot carries the same stage metric names a real transport run
// records (the acceptance contract: simulated and live exports are
// comparable by name).
func TestMetricsJSONSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	var out strings.Builder
	if err := run([]string{"-m", "100", "-l", "16", "-k", "6", "-seed", "2", "-metrics-json", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "stage timings") {
		t.Errorf("output missing the stage table:\n%s", out.String())
	}

	var snap obs.Snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}

	stages := map[string]int64{}
	names := map[string]bool{}
	for _, fam := range snap.Metrics {
		names[fam.Name] = true
		if fam.Name == obs.MetricStageSeconds {
			for _, s := range fam.Series {
				stages[s.Labels["stage"]] += s.Count
			}
		}
	}
	// Identical names to a real run: every pipeline stage appears under
	// obs.MetricStageSeconds with observations (allocate/encode recorded by
	// Deploy on the wall clock, store/compute/gather/decode by the
	// simulated fleet session on the virtual clock).
	for _, stage := range obs.Stages {
		if stages[stage] == 0 {
			t.Errorf("snapshot missing observations for stage %q (got %v)", stage, stages)
		}
	}
	for _, name := range []string{obs.MetricStageLastSeconds, obs.MetricFleetQueriesTotal} {
		if !names[name] {
			t.Errorf("snapshot missing %s", name)
		}
	}
}
