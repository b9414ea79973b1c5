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
		{"sub-one straggler", func(p *DeviceProfile) { p.StragglerFactor = 0.5 }, false},
		{"fail prob above one", func(p *DeviceProfile) { p.FailProb = 1.5 }, false},
		{"fail prob one", func(p *DeviceProfile) { p.FailProb = 1 }, true},
		{"NaN compute", func(p *DeviceProfile) { p.ComputeRate = math.NaN() }, false},
		{"infinite compute", func(p *DeviceProfile) { p.ComputeRate = math.Inf(1) }, false},
		{"infinite uplink", func(p *DeviceProfile) { p.UplinkRate = math.Inf(1) }, false},
		{"NaN downlink", func(p *DeviceProfile) { p.DownlinkRate = math.NaN() }, false},
		{"NaN straggler", func(p *DeviceProfile) { p.StragglerFactor = math.NaN() }, false},
		{"infinite straggler", func(p *DeviceProfile) { p.StragglerFactor = math.Inf(1) }, false},
		{"NaN fail prob", func(p *DeviceProfile) { p.FailProb = math.NaN() }, false},
	}
	for _, tc := range cases {
		p := DefaultProfile()
		tc.mut(&p)
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
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

// TestPushAndPerturbedRoundTime pins the two price functions the virtual
// studies share against the default profile by hand: a 10×64 block is 640
// values over a 1M values/s uplink plus 5 ms latency; a perturbed round is
// the nominal round with compute scaled by the factor, plus whatever is left
// of the outage.
func TestPushAndPerturbedRoundTime(t *testing.T) {
	p := DefaultProfile()
	if got, want := PushTime(10, 64, p), 5*time.Millisecond+640*time.Microsecond; got != want {
		t.Errorf("PushTime = %v, want %v", got, want)
	}
	nominal := DeviceRoundTime(10, 64, 1, p)
	for _, factor := range []float64{0, 0.5, 1} {
		if got := PerturbedRoundTime(10, 64, p, factor, 0, time.Second); got != nominal {
			t.Errorf("factor %g: %v, want the nominal %v", factor, got, nominal)
		}
	}
	slow := p
	slow.StragglerFactor = 4
	if got, want := PerturbedRoundTime(10, 64, p, 4, 0, time.Second), DeviceRoundTime(10, 64, 1, slow); got != want {
		t.Errorf("factor 4: %v, want %v", got, want)
	}
	if got, want := PerturbedRoundTime(10, 64, p, 1, 3*time.Second, time.Second), nominal+2*time.Second; got != want {
		t.Errorf("outage until 3s at t=1s: %v, want %v", got, want)
	}
	if got := PerturbedRoundTime(10, 64, p, 1, time.Second, time.Second); got != nominal {
		t.Errorf("outage already over: %v, want %v", got, nominal)
	}
}
