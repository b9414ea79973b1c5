package sim

import (
	"errors"
	"math"
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
	s, err := coding.NewStructured(f, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 6, 4)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVec[uint64](f, rng, 4)
	return f, enc, a, x
}

// setupCollusion is setup under the Cauchy t = 2 code (m=6, l=4, one row per
// device, r=2): an encoding with no structured scheme attached.
func setupCollusion(t *testing.T) (field.Prime, *coding.Encoding[uint64], *matrix.Dense[uint64], []uint64) {
	t.Helper()
	f := field.Prime{}
	rng := testRNG()
	rows, r, err := coding.UniformCollusionRows(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	code, err := coding.NewCollusion[uint64](f, 6, r, 2, rows)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 6, 4)
	enc, err := code.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	return f, enc, a, matrix.RandomVec[uint64](f, rng, 4)
}

// bothCodes runs a check under the Eq. (8) scheme and the Cauchy t = 2 code:
// replication is orthogonal to the code.
func bothCodes(t *testing.T, check func(t *testing.T, f field.Prime, enc *coding.Encoding[uint64], a *matrix.Dense[uint64], x []uint64)) {
	t.Run("structured", func(t *testing.T) {
		f, enc, a, x := setup(t)
		check(t, f, enc, a, x)
	})
	t.Run("cauchy-t2", func(t *testing.T) {
		f, enc, a, x := setupCollusion(t)
		if name := enc.Code.Name(); name != "collusion" {
			t.Fatalf("the collusion encoding carries a %q code", name)
		}
		check(t, f, enc, a, x)
	})
}

// groupConfig hosts every block on `replicas` default-profile devices.
func groupConfig(blocks, replicas int) Config {
	groups := make([][]DeviceProfile, blocks)
	for j := range groups {
		groups[j] = make([]DeviceProfile, replicas)
		for r := range groups[j] {
			groups[j][r] = DefaultProfile()
		}
	}
	return Config{Profiles: groups, Seed: 1}
}

// gather runs one simulated vector round: x as an l×1 input into a fresh
// (m+r)×1 result.
func gather(t *testing.T, f field.Prime, enc *coding.Encoding[uint64], x []uint64, cfg Config) ([]uint64, Report, error) {
	rows := 0
	for _, b := range enc.Blocks {
		rows += b.Rows()
	}
	y := make([]uint64, rows)
	rep, err := GatherContext(t.Context(), f, enc, matrix.FromSlice(len(x), 1, x), matrix.FromSlice(len(y), 1, y), cfg)
	if err != nil {
		return nil, rep, err
	}
	return y, rep, nil
}

// checkDecodes decodes the gathered results the way the engine does and
// compares them with the plaintext A·x.
func checkDecodes(t *testing.T, f field.Prime, enc *coding.Encoding[uint64], a *matrix.Dense[uint64], x, y []uint64) {
	t.Helper()
	got, err := enc.Code.Decode(y)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.VecEqual[uint64](f, got, matrix.MulVec[uint64](f, a, x)) {
		t.Fatal("the gathered results decode to the wrong A·x")
	}
}

func TestRunDecodesCorrectly(t *testing.T) {
	f, enc, a, x := setup(t)
	y, rep, err := gather(t, f, enc, x, groupConfig(len(enc.Blocks), 1))
	if err != nil {
		t.Fatal(err)
	}
	checkDecodes(t, f, enc, a, x, y)
	if rep.CompletionTime <= 0 {
		t.Fatal("completion time must be positive")
	}
	if rep.DecodeOps != 0 {
		t.Fatalf("decode ops = %d, want 0: the engine prices the decode", rep.DecodeOps)
	}
}

func TestResourceAccountingMatchesCostModel(t *testing.T) {
	// The simulator's per-device counters must match the Eq. (1) terms: a
	// device with v rows of length l stores v·l + l + v values, multiplies
	// v·l times and adds v·(l−1) times, and sends v values.
	f, enc, _, x := setup(t)
	_, rep, err := gather(t, f, enc, x, groupConfig(len(enc.Blocks), 1))
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
	if rep.StorageOverhead != 1 {
		t.Fatalf("storage overhead = %g, want 1 (one copy per block)", rep.StorageOverhead)
	}
}

// TestCompletionTimeIsMaxOverDevices: the round completes at the latest
// consumed arrival, whether or not blocks are replicated.
func TestCompletionTimeIsMaxOverDevices(t *testing.T) {
	f, enc, _, x := setup(t)
	for _, replicas := range []int{1, 2} {
		cfg := groupConfig(len(enc.Blocks), replicas)
		cfg.Profiles[0][0].StragglerFactor = 20
		_, rep, err := gather(t, f, enc, x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var latest time.Duration
		for _, d := range rep.Devices {
			if d.Used {
				latest = max(latest, d.ResultArrives)
			}
		}
		if rep.CompletionTime != latest {
			t.Fatalf("%d replicas: completion %v, want the last consumed arrival %v", replicas, rep.CompletionTime, latest)
		}
	}
}

func TestStragglerDelaysCompletion(t *testing.T) {
	f, enc, _, x := setup(t)
	_, base, err := gather(t, f, enc, x, groupConfig(len(enc.Blocks), 1))
	if err != nil {
		t.Fatal(err)
	}
	slow := groupConfig(len(enc.Blocks), 1)
	slow.Profiles[0][0].StragglerFactor = 50
	_, delayed, err := gather(t, f, enc, x, slow)
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
	cfg := groupConfig(len(enc.Blocks), 1)
	cfg.Profiles[1][0].FailProb = 1
	_, rep, err := gather(t, f, enc, x, cfg)
	if !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("err = %v, want ErrDeviceFailed", err)
	}
	if !rep.Devices[1].Failed {
		t.Fatal("failed device not flagged in report")
	}
}

func TestFailureSamplingIsSeeded(t *testing.T) {
	f, enc, _, x := setup(t)
	cfg := groupConfig(len(enc.Blocks), 2)
	for j := range cfg.Profiles {
		for r := range cfg.Profiles[j] {
			cfg.Profiles[j][r].FailProb = 0.5
		}
	}
	_, rep1, err1 := gather(t, f, enc, x, cfg)
	_, rep2, err2 := gather(t, f, enc, x, cfg)
	if (err1 == nil) != (err2 == nil) {
		t.Fatal("same seed must reproduce the same failure outcome")
	}
	for i := range rep1.Devices {
		if rep1.Devices[i].Failed != rep2.Devices[i].Failed {
			t.Fatal("same seed must reproduce identical per-replica failures")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	f, enc, _, x := setup(t)

	cfg := groupConfig(len(enc.Blocks)-1, 1)
	if _, _, err := gather(t, f, enc, x, cfg); err == nil {
		t.Error("profile count mismatch should error")
	}

	cfg = groupConfig(len(enc.Blocks), 1)
	cfg.Profiles[0][0].ComputeRate = 0
	if _, _, err := gather(t, f, enc, x, cfg); err == nil {
		t.Error("invalid device profile should error")
	}

	cfg = groupConfig(len(enc.Blocks), 1)
	if _, _, err := gather(t, f, enc, x[:2], cfg); err == nil {
		t.Error("input length mismatch should error")
	}

	bare := &coding.Encoding[uint64]{Blocks: enc.Blocks}
	if _, _, err := gather(t, f, bare, x, cfg); err == nil {
		t.Error("encoding without a scheme should error")
	}
}

func TestRunReplicatedDecodes(t *testing.T) {
	bothCodes(t, func(t *testing.T, f field.Prime, enc *coding.Encoding[uint64], a *matrix.Dense[uint64], x []uint64) {
		y, rep, err := gather(t, f, enc, x, groupConfig(len(enc.Blocks), 2))
		if err != nil {
			t.Fatal(err)
		}
		checkDecodes(t, f, enc, a, x, y)
		if rep.StorageOverhead != 2 {
			t.Fatalf("storage overhead = %g, want 2 (two replicas)", rep.StorageOverhead)
		}
		if len(rep.Devices) != 2*len(enc.Blocks) {
			t.Fatalf("%d device rows, want one per replica (%d)", len(rep.Devices), 2*len(enc.Blocks))
		}
		usedPerBlock := map[int]int{}
		for _, d := range rep.Devices {
			if d.Used {
				usedPerBlock[d.Device]++
			}
		}
		for j := range enc.Blocks {
			if usedPerBlock[j] != 1 {
				t.Fatalf("block %d consumed %d replicas, want exactly 1", j, usedPerBlock[j])
			}
		}
	})
}

func TestRunReplicatedMasksStraggler(t *testing.T) {
	f, enc, _, x := setup(t)

	// Unreplicated baseline with a severe straggler on device 0.
	slow := groupConfig(len(enc.Blocks), 1)
	slow.Profiles[0][0].StragglerFactor = 1000
	_, slowRep, err := gather(t, f, enc, x, slow)
	if err != nil {
		t.Fatal(err)
	}

	// Replicated: the same straggler, but each block has a nominal backup.
	cfg := groupConfig(len(enc.Blocks), 2)
	cfg.Profiles[0][0].StragglerFactor = 1000
	_, fastRep, err := gather(t, f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fastRep.CompletionTime >= slowRep.CompletionTime {
		t.Fatalf("replication should mask the straggler: %v vs %v", fastRep.CompletionTime, slowRep.CompletionTime)
	}
	// The straggling replica must not be the one consumed.
	for _, d := range fastRep.Devices {
		if d.Device == 0 && d.Replica == 0 && d.Used {
			t.Fatal("the straggling replica was consumed despite a faster backup")
		}
	}
}

func TestRunReplicatedSurvivesFailures(t *testing.T) {
	f, enc, a, x := setup(t)
	cfg := groupConfig(len(enc.Blocks), 2)
	// Fail the first replica of every block; the backups carry the run.
	for j := range cfg.Profiles {
		cfg.Profiles[j][0].FailProb = 1
	}
	y, rep, err := gather(t, f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDecodes(t, f, enc, a, x, y)
	for _, d := range rep.Devices {
		if d.Replica == 0 && !d.Failed {
			t.Fatal("primary replicas should all be failed")
		}
		if d.Replica == 0 && d.Used {
			t.Fatal("failed replica marked used")
		}
	}
}

func TestRunReplicatedAllReplicasFail(t *testing.T) {
	f, enc, _, x := setup(t)
	cfg := groupConfig(len(enc.Blocks), 2)
	for r := range cfg.Profiles[1] {
		cfg.Profiles[1][r].FailProb = 1
	}
	if _, _, err := gather(t, f, enc, x, cfg); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("err = %v, want ErrDeviceFailed", err)
	}
}

func TestRunReplicatedValidation(t *testing.T) {
	f, enc, _, x := setup(t)

	cfg := groupConfig(len(enc.Blocks)-1, 1)
	if _, _, err := gather(t, f, enc, x, cfg); err == nil {
		t.Error("replica-group count mismatch should error")
	}

	cfg = groupConfig(len(enc.Blocks), 1)
	cfg.Profiles[0] = nil
	if _, _, err := gather(t, f, enc, x, cfg); err == nil {
		t.Error("empty replica group should error")
	}

	cfg = groupConfig(len(enc.Blocks), 2)
	cfg.Profiles[0][1].Latency = -time.Second
	if _, _, err := gather(t, f, enc, x, cfg); err == nil {
		t.Error("invalid backup profile should error")
	}

	cfg = groupConfig(len(enc.Blocks), 1)
	if _, _, err := gather(t, f, enc, x[:1], cfg); err == nil {
		t.Error("input length mismatch should error")
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
