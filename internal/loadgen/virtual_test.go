package loadgen

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// rowsEach lays out n devices holding rows coded rows each.
func rowsEach(n, rows int) []int {
	layout := make([]int, n)
	for j := range layout {
		layout[j] = rows
	}
	return layout
}

func thousandDeviceOpts() VirtualOptions {
	return VirtualOptions{
		DeviceRows: rowsEach(1000, 2),
		Cols:       64,
		ChurnEvery: 200 * time.Millisecond,
		Rates:      []float64{500, 1000, 2000, 4000},
		// Small step budget keeps the test fast; determinism makes it exact.
		RequestsPerStep: 400,
		Seed:            11,
	}
}

func TestVirtualSweepDeterministic(t *testing.T) {
	a, statsA, err := VirtualSweep(thousandDeviceOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, statsB, err := VirtualSweep(thousandDeviceOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same options, different curves:\n%+v\n%+v", a, b)
	}
	if statsA != statsB {
		t.Fatalf("same options, different churn: %+v vs %+v", statsA, statsB)
	}
}

func TestVirtualSweepThousandDevicesWithChurn(t *testing.T) {
	o := thousandDeviceOpts()
	steps, stats, err := VirtualSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(o.Rates) {
		t.Fatalf("got %d steps, want %d", len(steps), len(o.Rates))
	}
	if stats.ChurnEvents == 0 {
		t.Fatal("churn enabled but no churn events fired")
	}
	for i, s := range steps {
		if s.Requests != o.RequestsPerStep {
			t.Errorf("step %d: requests = %d, want %d", i, s.Requests, o.RequestsPerStep)
		}
		if s.P50 <= 0 || s.P99 < s.P50 || s.P999 < s.P99 || s.Max < s.P999 {
			t.Errorf("step %d: quantiles out of order: %+v", i, s)
		}
	}
	knee := stats.KneeQPS
	// The model's service time (~10ms/round, 16 rounds in flight) caps
	// sustainable throughput well under the top offered rate, so the sweep
	// must find a knee strictly inside the swept range.
	if knee <= 0 || knee >= o.Rates[len(o.Rates)-1] {
		t.Fatalf("knee = %g QPS, want inside (0, %g); steps: %+v", knee, o.Rates[len(o.Rates)-1], steps)
	}
	if !steps[len(steps)-1].Saturated {
		t.Fatalf("top step at %g QPS should be saturated: %+v", o.Rates[len(o.Rates)-1], steps[len(steps)-1])
	}
}

func TestVirtualSweepChurnLengthensTail(t *testing.T) {
	calm := thousandDeviceOpts()
	calm.ChurnEvery = 0
	calm.Rates = []float64{500}
	churny := thousandDeviceOpts()
	churny.Rates = []float64{500}
	churny.ChurnEvery = 50 * time.Millisecond

	a, _, err := VirtualSweep(calm)
	if err != nil {
		t.Fatal(err)
	}
	b, stats, err := VirtualSweep(churny)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Outages == 0 {
		t.Fatal("expected outages among the churn events")
	}
	if b[0].P999 <= a[0].P999 {
		t.Fatalf("churn must lengthen the tail: calm p999 %v, churny p999 %v", a[0].P999, b[0].P999)
	}
}

func TestVirtualSweepValidation(t *testing.T) {
	bad := thousandDeviceOpts()
	bad.DeviceRows = nil
	if _, _, err := VirtualSweep(bad); err == nil || !strings.Contains(err.Error(), "needs devices") {
		t.Fatalf("zero devices accepted: %v", err)
	}
	bad = thousandDeviceOpts()
	bad.DeviceRows[3] = 0
	if _, _, err := VirtualSweep(bad); err == nil || !strings.Contains(err.Error(), "DeviceRows[3]") {
		t.Fatalf("a device without rows accepted: %v", err)
	}
	bad = thousandDeviceOpts()
	bad.Rates = nil
	if _, _, err := VirtualSweep(bad); err == nil {
		t.Fatal("empty rate list accepted")
	}
}

// TestVirtualSweepMatchesCommittedLoadReport pins the virtual half of `make
// load-check` in tier-1: the same options must reproduce the
// sim-1000dev-churn scenario of results/load.json exactly (the make target
// overwrites the file; CI's git diff after it catches a move there, and this
// test catches it in tier-1).
func TestVirtualSweepMatchesCommittedLoadReport(t *testing.T) {
	data, err := os.ReadFile("../../results/load.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	var want *Scenario
	for i := range rep.Scenarios {
		if rep.Scenarios[i].Name == "sim-1000dev-churn" {
			want = &rep.Scenarios[i]
		}
	}
	if want == nil {
		t.Fatal("results/load.json has no sim-1000dev-churn scenario")
	}
	steps, stats, err := VirtualSweep(VirtualOptions{
		DeviceRows:      rowsEach(1000, 1),
		Cols:            64,
		ChurnEvery:      200 * time.Millisecond,
		Rates:           []float64{500, 1000, 2000, 4000},
		RequestsPerStep: 2000,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(steps, want.Steps) {
		t.Errorf("steps moved:\n got %+v\nwant %+v", steps, want.Steps)
	}
	if stats.ChurnEvents != want.ChurnEvents || stats.Outages != want.Outages {
		t.Errorf("churn moved: got %d events / %d outages, want %d / %d",
			stats.ChurnEvents, stats.Outages, want.ChurnEvents, want.Outages)
	}
}
