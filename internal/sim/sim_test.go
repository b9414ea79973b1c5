package sim

import (
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

func testRNG() *rand.Rand { return rand.New(rand.NewPCG(13, 29)) }

// setup builds an encoding for m=6, l=4, r=2 over the prime field.
func setup(t *testing.T) (field.Prime, *coding.Encoding[uint64], *matrix.Dense[uint64], []uint64) {
	t.Helper()
	f := field.Prime{}
	rng := testRNG()
	s, err := coding.New(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 6, 4)
	enc, err := coding.Encode[uint64](f, s, a, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVec[uint64](f, rng, 4)
	return f, enc, a, x
}

func uniformConfig(devices int) Config {
	profiles := make([]DeviceProfile, devices)
	for j := range profiles {
		profiles[j] = DefaultProfile()
	}
	return Config{Profiles: profiles, UserComputeRate: 1e9, Seed: 1}
}

func TestRunDecodesCorrectly(t *testing.T) {
	f, enc, a, x := setup(t)
	cfg := uniformConfig(len(enc.Blocks))
	got, rep, err := Run(f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.MulVec[uint64](f, a, x)
	if !matrix.VecEqual[uint64](f, got, want) {
		t.Fatal("simulated pipeline decoded the wrong result")
	}
	if rep.CompletionTime <= 0 {
		t.Fatal("completion time must be positive")
	}
	if rep.DecodeOps != 6 {
		t.Fatalf("decode ops = %d, want m = 6", rep.DecodeOps)
	}
}

func TestResourceAccountingMatchesCostModel(t *testing.T) {
	// The simulator's per-device counters must match the Eq. (1) terms: a
	// device with v rows of length l stores v·l + l + v values, multiplies
	// v·l times and adds v·(l−1) times, and sends v values.
	f, enc, _, x := setup(t)
	cfg := uniformConfig(len(enc.Blocks))
	_, rep, err := Run(f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := 4
	for _, d := range rep.Devices {
		v := d.Rows
		if d.StorageValues != v*l+l+v {
			t.Fatalf("device %d storage = %d, want %d", d.Device, d.StorageValues, v*l+l+v)
		}
		if d.FieldOps != int64(v*l+v*(l-1)) {
			t.Fatalf("device %d ops = %d, want %d", d.Device, d.FieldOps, v*l+v*(l-1))
		}
		if d.ValuesSent != v {
			t.Fatalf("device %d sent %d values, want %d", d.Device, d.ValuesSent, v)
		}
	}
	// Totals: m+r rows across all devices.
	if rep.TotalValuesSent != 8 {
		t.Fatalf("total values sent = %d, want m+r = 8", rep.TotalValuesSent)
	}
}

func TestCompletionTimeIsMaxOverDevices(t *testing.T) {
	f, enc, _, x := setup(t)
	cfg := uniformConfig(len(enc.Blocks))
	_, rep, err := Run(f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var latest time.Duration
	for _, d := range rep.Devices {
		if d.ResultArrives > latest {
			latest = d.ResultArrives
		}
	}
	if rep.CompletionTime <= latest {
		t.Fatal("completion must include decode time after the last arrival")
	}
}

func TestStragglerDelaysCompletion(t *testing.T) {
	f, enc, _, x := setup(t)
	cfg := uniformConfig(len(enc.Blocks))
	_, base, err := Run(f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow := uniformConfig(len(enc.Blocks))
	slow.Profiles[0].StragglerFactor = 50
	_, delayed, err := Run(f, enc, x, slow)
	if err != nil {
		t.Fatal(err)
	}
	if delayed.CompletionTime <= base.CompletionTime {
		t.Fatalf("straggler should delay completion: %v vs %v", delayed.CompletionTime, base.CompletionTime)
	}
	if delayed.Devices[0].ComputeDone <= base.Devices[0].ComputeDone {
		t.Fatal("straggler's own compute time should grow")
	}
}

func TestDeviceFailureAborts(t *testing.T) {
	f, enc, _, x := setup(t)
	cfg := uniformConfig(len(enc.Blocks))
	cfg.Profiles[1].FailProb = 1
	_, rep, err := Run(f, enc, x, cfg)
	if !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("err = %v, want ErrDeviceFailed", err)
	}
	if !rep.Devices[1].Failed {
		t.Fatal("failed device not flagged in report")
	}
}

func TestFailureSamplingIsSeeded(t *testing.T) {
	f, enc, _, x := setup(t)
	cfg := uniformConfig(len(enc.Blocks))
	for j := range cfg.Profiles {
		cfg.Profiles[j].FailProb = 0.5
	}
	_, rep1, err1 := Run(f, enc, x, cfg)
	_, rep2, err2 := Run(f, enc, x, cfg)
	if (err1 == nil) != (err2 == nil) {
		t.Fatal("same seed must reproduce the same failure outcome")
	}
	for j := range rep1.Devices {
		if rep1.Devices[j].Failed != rep2.Devices[j].Failed {
			t.Fatal("same seed must reproduce identical per-device failures")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	f, enc, _, x := setup(t)

	cfg := uniformConfig(len(enc.Blocks) - 1)
	if _, _, err := Run(f, enc, x, cfg); err == nil {
		t.Error("profile count mismatch should error")
	}

	cfg = uniformConfig(len(enc.Blocks))
	cfg.UserComputeRate = 0
	if _, _, err := Run(f, enc, x, cfg); err == nil {
		t.Error("zero user compute rate should error")
	}

	cfg = uniformConfig(len(enc.Blocks))
	cfg.Profiles[0].ComputeRate = 0
	if _, _, err := Run(f, enc, x, cfg); err == nil {
		t.Error("invalid device profile should error")
	}

	cfg = uniformConfig(len(enc.Blocks))
	if _, _, err := Run(f, enc, x[:2], cfg); err == nil {
		t.Error("input length mismatch should error")
	}

	bare := &coding.Encoding[uint64]{Blocks: enc.Blocks}
	if _, _, err := Run(f, bare, x, cfg); err == nil {
		t.Error("encoding without a scheme should error")
	}
}

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
