package adapt

import (
	"math"
	"testing"
	"time"

	"github.com/scec/scec/internal/fleet"
)

// hostsOf lists the addresses as unit-cost hosts.
func hostsOf(addrs ...string) []Host {
	hosts := make([]Host, len(addrs))
	for i, a := range addrs {
		hosts[i] = Host{Addr: a, Base: 1}
	}
	return hosts
}

// factorsOf prices hosts from per-row latencies and RTTs through estimate.
func factorsOf(perRow map[string]time.Duration, rtt map[string]time.Duration, hosts []Host) map[string]float64 {
	sub := &fakeSub{perRow: map[string]float64{}, rtt: rtt}
	for d, v := range perRow {
		sub.perRow[d] = v.Seconds()
	}
	out := map[string]float64{}
	for _, e := range estimate(sub, hosts) {
		out[e.Device] = e.Factor
	}
	return out
}

// TestFactorsNeutralBelowThreshold: a session's reading leaves out a device
// whose record holds fewer than fleet.MinAdaptiveSamples samples, and one
// bound to no block, however slow; estimate then prices it nominal.
func TestFactorsNeutralBelowThreshold(t *testing.T) {
	stats := []fleet.DeviceStats{
		{Device: "a", Samples: fleet.MinAdaptiveSamples, P50: 10 * time.Millisecond},
		{Device: "b", Samples: fleet.MinAdaptiveSamples - 1, P50: 500 * time.Millisecond},
		{Device: "c", Samples: fleet.MinAdaptiveSamples, P50: 500 * time.Millisecond},
	}
	rows := rowLatencies(stats, map[string]int{"a": 0, "b": 1}, func(int) int { return 1 })
	if len(rows) != 1 || rows["a"] != 0.01 {
		t.Fatalf("reading = %v, want only a at 10ms per row", rows)
	}
	if est := estimate(&fakeSub{perRow: rows}, hostsOf("a", "b", "c")); len(est) != 1 || est[0].Device != "a" || est[0].Factor != 1 {
		t.Fatalf("estimates %+v, want a alone at factor 1", est)
	}
}

func TestFactorsStraggler(t *testing.T) {
	ms := time.Millisecond
	// Device "e" is chronically 5× slower per row.
	f := factorsOf(map[string]time.Duration{"a": 10 * ms, "b": 10 * ms, "c": 10 * ms, "d": 10 * ms, "e": 50 * ms}, nil,
		hostsOf("a", "b", "c", "d", "e"))
	if got := f["e"]; math.Abs(got-5) > 0.01 {
		t.Fatalf("straggler factor = %g, want ≈5", got)
	}
	for _, d := range []string{"a", "b", "c", "d"} {
		if math.Abs(f[d]-1) > 0.01 {
			t.Fatalf("nominal device %s factor = %g, want ≈1", d, f[d])
		}
	}
}

// TestFactorsRowNormalization: the same per-row speed on blocks of
// different sizes reads the same, so the two devices price alike.
func TestFactorsRowNormalization(t *testing.T) {
	stats := []fleet.DeviceStats{
		{Device: "big", Samples: fleet.MinAdaptiveSamples, P50: time.Second},
		{Device: "small", Samples: fleet.MinAdaptiveSamples, P50: 100 * time.Millisecond},
	}
	blockRows := []int{100, 10}
	rows := rowLatencies(stats, map[string]int{"big": 0, "small": 1}, func(j int) int { return blockRows[j] })
	if math.Abs(rows["big"]-rows["small"]) > 1e-12 || math.Abs(rows["big"]-0.01) > 1e-12 {
		t.Fatalf("per-row readings differ: %v, want both 10ms", rows)
	}
	f := map[string]float64{}
	for _, e := range estimate(&fakeSub{perRow: rows}, hostsOf("big", "small")) {
		f[e.Device] = e.Factor
	}
	if f["big"] != f["small"] {
		t.Fatalf("row-normalized factors differ: big=%g small=%g", f["big"], f["small"])
	}
}

func TestFactorsRTTDominates(t *testing.T) {
	ms := time.Millisecond
	// "c" computes at the median but its link is 8× slower: the factor is
	// the pessimistic max of the two ratios.
	f := factorsOf(map[string]time.Duration{"a": 10 * ms, "b": 10 * ms, "c": 10 * ms},
		map[string]time.Duration{"a": 2 * ms, "b": 2 * ms, "c": 16 * ms}, hostsOf("a", "b", "c"))
	if f["c"] != 8 || f["a"] != 1 {
		t.Fatalf("factors %v, want c at 8 and a nominal", f)
	}
}

func TestFactorsClamp(t *testing.T) {
	ms := time.Millisecond
	f := factorsOf(map[string]time.Duration{"a": 10 * ms, "b": 10 * ms, "c": 10 * ms, "slow": 10 * time.Second, "fast": time.Nanosecond}, nil,
		hostsOf("a", "b", "c", "slow", "fast"))
	if f["slow"] != maxFactor {
		t.Fatalf("slow factor = %g, want clamped to %g", f["slow"], maxFactor)
	}
	if f["fast"] != 1/maxFactor {
		t.Fatalf("fast factor = %g, want clamped to 1/%g", f["fast"], maxFactor)
	}
}

// TestFactorsEstimatesSorted: /debug/adapt lists the priced devices by
// address, whatever the planner's host order.
func TestFactorsEstimatesSorted(t *testing.T) {
	sub := &fakeSub{perRow: map[string]float64{"z": 1e-3, "m": 1e-3, "a": 1e-3}}
	est := estimate(sub, hostsOf("z", "m", "a"))
	if len(est) != 3 {
		t.Fatalf("estimates %+v, want 3", est)
	}
	for i := 1; i < len(est); i++ {
		if est[i-1].Device >= est[i].Device {
			t.Fatalf("estimates not sorted: %+v", est)
		}
	}
}
