package loadgen

import (
	"testing"
	"time"

	"github.com/scec/scec/internal/fleet"
)

func TestReplayValidate(t *testing.T) {
	var nilReplay *Replay
	if err := nilReplay.Validate(); err != nil {
		t.Fatalf("nil replay must be valid: %v", err)
	}
	ok := &Replay{Devices: [][]ReplayStep{
		nil,
		{{At: 0, Factor: 1}, {At: time.Second, Factor: 4}, {At: time.Second, Factor: 1}},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid replay rejected: %v", err)
	}
	outOfOrder := &Replay{Devices: [][]ReplayStep{
		{{At: time.Second, Factor: 2}, {At: 0, Factor: 1}},
	}}
	if err := outOfOrder.Validate(); err == nil {
		t.Fatal("out-of-order schedule accepted")
	}
	badFactor := &Replay{Devices: [][]ReplayStep{
		{{At: 0, Factor: 0}},
	}}
	if err := badFactor.Validate(); err == nil {
		t.Fatal("non-positive factor accepted")
	}
}

func TestReplayFromStragglers(t *testing.T) {
	digest := []fleet.DeviceStats{
		{Device: "a", Samples: 100, P50: 10 * time.Millisecond, P95: 12 * time.Millisecond},
		{Device: "b", Samples: 100, P50: 10 * time.Millisecond, P95: 50 * time.Millisecond},
		{Device: "c", Samples: 0}, // never won an attempt: stays nominal
		{Device: "d", Samples: 100, P50: 10 * time.Millisecond, P95: 5 * time.Millisecond},
	}
	r := ReplayFromStragglers(digest)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(r.Devices) != len(digest) {
		t.Fatalf("replay covers %d devices, want %d", len(r.Devices), len(digest))
	}
	// b's p95 is 5× the fleet-median p50: the replay makes it straggle 5×.
	if got := r.Devices[1][0].Factor; got < 4.9 || got > 5.1 {
		t.Fatalf("straggler factor = %g, want ≈5", got)
	}
	// a is barely above nominal, d below: factors clamp to ≥ 1.
	if got := r.Devices[0][0].Factor; got < 1 {
		t.Fatalf("device a factor = %g, want ≥ 1", got)
	}
	if got := r.Devices[3][0].Factor; got != 1 {
		t.Fatalf("fast device factor = %g, want clamped to 1", got)
	}
	if r.Devices[2] != nil {
		t.Fatalf("sample-less device got a schedule: %v", r.Devices[2])
	}

	if empty := ReplayFromStragglers(nil); len(empty.Devices) != 0 || empty.Validate() != nil {
		t.Fatalf("empty digest should yield an empty valid replay: %+v", empty)
	}
}

// TestVirtualSweepReplayDegradesTail pins that a replayed straggler actually
// shows up in the virtual sweep's latency curve, deterministically.
func TestVirtualSweepReplayDegradesTail(t *testing.T) {
	base := VirtualOptions{
		Devices: 50, RowsPerDevice: 8, Cols: 64,
		Concurrency:     4,
		Rates:           []float64{200},
		RequestsPerStep: 400,
		Seed:            7,
	}
	clean, _, err := VirtualSweep(base)
	if err != nil {
		t.Fatal(err)
	}

	replayed := base
	replayed.Replay = &Replay{Devices: [][]ReplayStep{
		3: {{At: 0, Factor: 10}},
	}}
	slow, _, err := VirtualSweep(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if slow[0].P99 <= clean[0].P99 {
		t.Fatalf("replayed 10× straggler did not degrade p99: clean %v vs replayed %v", clean[0].P99, slow[0].P99)
	}

	again, _, err := VirtualSweep(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].P99 != slow[0].P99 || again[0].P50 != slow[0].P50 {
		t.Fatalf("replayed sweep is not deterministic: %v vs %v", again[0], slow[0])
	}

	bad := base
	bad.Replay = &Replay{Devices: [][]ReplayStep{{{At: 0, Factor: -1}}}}
	if _, _, err := VirtualSweep(bad); err == nil {
		t.Fatal("invalid replay accepted by VirtualSweep")
	}
}

// TestReplayFactorAt pins the one factor-at-time lookup the virtual sweep and
// the recovery scenario share.
func TestReplayFactorAt(t *testing.T) {
	r := &Replay{Devices: [][]ReplayStep{
		0: {{At: time.Second, Factor: 3}, {At: 2 * time.Second, Factor: 0.5}, {At: 3 * time.Second, Factor: 2}, {At: 3 * time.Second, Factor: 7}},
		1: nil,
	}}
	for _, c := range []struct {
		dev  int
		at   time.Duration
		want float64
	}{
		{0, 0, 1},                       // before the first step
		{0, time.Second, 3},             // a step applies from its own instant
		{0, 1500 * time.Millisecond, 3}, // and until the next
		{0, 2 * time.Second, 1},         // recorded ≤ 1 is nominal
		{0, time.Hour, 7},               // the last of two steps at one instant wins
		{1, time.Second, 1},             // no schedule
		{5, time.Second, 1},             // beyond the recording
	} {
		if got := r.FactorAt(c.dev, c.at); got != c.want {
			t.Errorf("FactorAt(%d, %v) = %g, want %g", c.dev, c.at, got, c.want)
		}
	}
	if got := (*Replay)(nil).FactorAt(0, time.Second); got != 1 {
		t.Errorf("nil replay: %g, want 1", got)
	}
}
