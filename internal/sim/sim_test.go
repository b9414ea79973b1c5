package sim

import (
	"math"
	"testing"
	"time"
)

func TestProfileValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*DeviceProfile)
		ok   bool
	}{
		{"default", func(*DeviceProfile) {}, true},
		{"zero compute", func(p *DeviceProfile) { p.ComputeRate = 0 }, false},
		{"zero uplink", func(p *DeviceProfile) { p.UplinkRate = 0 }, false},
		{"zero downlink", func(p *DeviceProfile) { p.DownlinkRate = 0 }, false},
		{"negative latency", func(p *DeviceProfile) { p.Latency = -time.Second }, false},
		{"NaN compute", func(p *DeviceProfile) { p.ComputeRate = math.NaN() }, false},
		{"infinite compute", func(p *DeviceProfile) { p.ComputeRate = math.Inf(1) }, false},
		{"infinite uplink", func(p *DeviceProfile) { p.UplinkRate = math.Inf(1) }, false},
		{"NaN downlink", func(p *DeviceProfile) { p.DownlinkRate = math.NaN() }, false},
		{"slowdown", fault(Fault{Slow: 4}), true},
		{"fail prob one", fault(Fault{Fail: 1}), true},
		{"ending outage", fault(Fault{From: time.Second, Until: 2 * time.Second, Down: true}), true},
		{"sub-one slowdown", fault(Fault{Slow: 0.5}), false},
		{"NaN slowdown", fault(Fault{Slow: math.NaN()}), false},
		{"infinite slowdown", fault(Fault{Slow: math.Inf(1)}), false},
		{"NaN fail prob", fault(Fault{Fail: math.NaN()}), false},
		{"infinite fail prob", fault(Fault{Fail: math.Inf(1)}), false},
		{"fail prob above one", fault(Fault{Fail: 1.5}), false},
		{"negative fail prob", fault(Fault{Fail: -0.1}), false},
		{"until before from", fault(Fault{From: 2 * time.Second, Until: time.Second, Slow: 2}), false},
		{"endless outage", fault(Fault{From: time.Second, Down: true}), false},
		{"out of order", fault(Fault{From: time.Second, Slow: 2}, Fault{Slow: 3}), false},
	}
	for _, tc := range cases {
		p := DefaultProfile()
		tc.mut(&p)
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// fault returns a mutation that gives a profile the faults fs.
func fault(fs ...Fault) func(*DeviceProfile) {
	return func(p *DeviceProfile) { p.Faults = fs }
}

// TestAt pins the fault vocabulary's one read.
func TestAt(t *testing.T) {
	const s = time.Second
	cases := []struct {
		name   string
		faults []Fault
		at     time.Duration
		slow   float64
		fail   float64
		upAt   time.Duration
	}{
		// A later slowdown replaces an earlier one, even one that would
		// still be in force: the churn model overwrites a device's slowdown.
		{"later slowdown replaces longer", []Fault{{From: 0, Until: 10 * s, Slow: 8}, {From: 2 * s, Until: 4 * s, Slow: 3}}, 3 * s, 3, 0, 3 * s},
		{"replaced slowdown stays gone", []Fault{{From: 0, Until: 10 * s, Slow: 8}, {From: 2 * s, Until: 4 * s, Slow: 3}}, 5 * s, 1, 0, 5 * s},
		// Overlapping outages hold the device until the later end.
		{"overlapping outages", []Fault{{From: 0, Until: 5 * s, Down: true}, {From: 1 * s, Until: 3 * s, Down: true}}, 2 * s, 1, 0, 5 * s},
		{"outage ends at its Until", []Fault{{From: 0, Until: 5 * s, Down: true}}, 5 * s, 1, 0, 5 * s},
		// A fault holds on [From, Until) only.
		{"before From", []Fault{{From: 2 * s, Until: 4 * s, Slow: 5, Fail: 0.5}}, 2*s - 1, 1, 0, 2*s - 1},
		{"at From", []Fault{{From: 2 * s, Until: 4 * s, Slow: 5, Fail: 0.5}}, 2 * s, 5, 0.5, 2 * s},
		{"at Until", []Fault{{From: 2 * s, Until: 4 * s, Slow: 5, Fail: 0.5}}, 4 * s, 1, 0, 4 * s},
		{"for good", []Fault{{From: 2 * s, Slow: 5}}, 1000 * s, 5, 0, 1000 * s},
	}
	for _, tc := range cases {
		p := DefaultProfile()
		p.Faults = tc.faults
		if slow, fail, upAt := p.At(tc.at); slow != tc.slow || fail != tc.fail || upAt != tc.upAt {
			t.Errorf("%s: At(%v) = (%g, %g, %v), want (%g, %g, %v)", tc.name, tc.at, slow, fail, upAt, tc.slow, tc.fail, tc.upAt)
		}
	}
}

// TestRoundQueueTwoSlotSchedule checks the shared G/G/c queue against a
// hand-computed FIFO schedule: two slots, 10 ms rounds, arrivals at 0, 1, 2,
// 3 and 30 ms. Rounds 0 and 1 start on arrival; round 2 waits for the slot
// round 0 frees at 10 ms, round 3 for the one round 1 frees at 11 ms; by
// 30 ms both slots are idle again.
func TestRoundQueueTwoSlotSchedule(t *testing.T) {
	const ms = time.Millisecond
	q := NewRoundQueue(2)
	arrivals := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 30 * ms}
	wantStart := []time.Duration{0, 1 * ms, 10 * ms, 11 * ms, 30 * ms}
	for i, at := range arrivals {
		var start time.Duration
		finish := q.Serve(at, func(s time.Duration) time.Duration { start = s; return 10 * ms })
		if start != wantStart[i] || finish != wantStart[i]+10*ms {
			t.Errorf("round %d arriving at %v: start %v finish %v, want start %v finish %v",
				i, at, start, finish, wantStart[i], wantStart[i]+10*ms)
		}
	}
}

// TestPushAndPriceRound pins the two price functions the virtual studies
// share against the default profile by hand: a 10×64 block is 640 values
// over a 1M values/s uplink plus 5 ms latency; a round under a fault is the
// nominal round with compute scaled by the slowdown in force at launch, plus
// whatever is left of an outage.
func TestPushAndPriceRound(t *testing.T) {
	p := DefaultProfile()
	if got, want := PushTime(10, 64, p), 5*time.Millisecond+640*time.Microsecond; got != want {
		t.Errorf("PushTime = %v, want %v", got, want)
	}
	// 64 values up, 10·(2·64−1) field ops at 100 MF/s, 10 values down.
	compute := func(slow float64) time.Duration { return seconds(1270 / 100e6 * slow) }
	nominal := DeviceRoundTime(10, 64, p, 0)
	if want := 5*time.Millisecond + seconds(64/1e6) + compute(1) + 5*time.Millisecond + seconds(10/1e6); nominal != want {
		t.Errorf("nominal round = %v, want %v", nominal, want)
	}
	at := func(faults ...Fault) time.Duration {
		q := p
		q.Faults = faults
		return DeviceRoundTime(10, 64, q, time.Second)
	}
	if got := at(Fault{Slow: 1}); got != nominal {
		t.Errorf("slowdown 1: %v, want the nominal %v", got, nominal)
	}
	if got, want := at(Fault{Slow: 4}), nominal-compute(1)+compute(4); got != want {
		t.Errorf("slowdown 4: %v, want %v", got, want)
	}
	if got, want := at(Fault{Until: 3 * time.Second, Down: true}), nominal+2*time.Second; got != want {
		t.Errorf("outage until 3s at t=1s: %v, want %v", got, want)
	}
	if got := at(Fault{Until: time.Second, Down: true}); got != nominal {
		t.Errorf("outage already over: %v, want %v", got, nominal)
	}
}
