package sim_test

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/fleet"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/sim"
)

// These tests price simulated gathers: fleet.Simulate runs the fleet's own
// replica race over devices priced by this package.

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
// device, r=2).
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

// groups hosts every block on `replicas` default-profile devices.
func groups(blocks, replicas int) [][]sim.DeviceProfile {
	g := make([][]sim.DeviceProfile, blocks)
	for j := range g {
		g[j] = make([]sim.DeviceProfile, replicas)
		for r := range g[j] {
			g[j][r] = sim.DefaultProfile()
		}
	}
	return g
}

// gather runs one simulated vector gather on a fresh session with seed 1.
func gather(t *testing.T, f field.Prime, enc *coding.Encoding[uint64], x []uint64, profiles [][]sim.DeviceProfile) ([]uint64, sim.Report, error) {
	return gatherOn(t, f, enc, x, profiles, obs.New())
}

func gatherOn(t *testing.T, f field.Prime, enc *coding.Encoding[uint64], x []uint64, profiles [][]sim.DeviceProfile, reg *obs.Registry) ([]uint64, sim.Report, error) {
	t.Helper()
	s, err := fleet.Simulate(f, enc, profiles, 1, reg)
	if err != nil {
		return nil, sim.Report{}, err
	}
	defer func() { _ = s.Close() }()
	y, err := s.GatherContext(t.Context(), x)
	rep, _ := s.SimReport()
	return y, rep, err
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

// decodePrice is the virtual decode a report folds into its completion.
func decodePrice(rep sim.Report) time.Duration {
	return time.Duration(float64(rep.DecodeOps) / 1e9 * float64(time.Second))
}

// lastWin is the latest winning arrival of a report.
func lastWin(rep sim.Report) time.Duration {
	var latest time.Duration
	for _, d := range rep.Devices {
		if d.Outcome == sim.Won {
			latest = max(latest, d.ResultArrives)
		}
	}
	return latest
}

func TestRunDecodesCorrectly(t *testing.T) {
	f, enc, a, x := setup(t)
	y, rep, err := gather(t, f, enc, x, groups(len(enc.Blocks), 1))
	if err != nil {
		t.Fatal(err)
	}
	checkDecodes(t, f, enc, a, x, y)
	if rep.CompletionTime <= 0 {
		t.Fatal("completion time must be positive")
	}
	if rep.DecodeOps != 6 {
		t.Fatalf("decode ops = %d, want m = 6 subtractions", rep.DecodeOps)
	}
}

func TestResourceAccountingMatchesCostModel(t *testing.T) {
	// The per-attempt counters must match the Eq. (1) terms: a device with
	// v rows of length l stores v·l + l + v values, multiplies v·l times and
	// adds v·(l−1) times, and sends v values.
	f, enc, _, x := setup(t)
	_, rep, err := gather(t, f, enc, x, groups(len(enc.Blocks), 1))
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

// TestCompletionTimeIsMaxOverDevices: the gather completes at the latest
// winning arrival, whether or not blocks are replicated; a straggler whose
// round stays under the hedge delay still leads its block.
func TestCompletionTimeIsMaxOverDevices(t *testing.T) {
	f, enc, _, x := setup(t)
	for _, replicas := range []int{1, 2} {
		g := groups(len(enc.Blocks), replicas)
		g[0][0].Faults = []sim.Fault{{Slow: 20}}
		_, rep, err := gather(t, f, enc, x, g)
		if err != nil {
			t.Fatal(err)
		}
		if want := lastWin(rep) + decodePrice(rep); rep.CompletionTime != want {
			t.Fatalf("%d replicas: completion %v, want the last winning arrival plus the decode, %v", replicas, rep.CompletionTime, want)
		}
		if len(rep.Devices) != len(enc.Blocks) {
			t.Fatalf("%d replicas: %d attempts, want one leader per block and no hedge", replicas, len(rep.Devices))
		}
	}
}

func TestStragglerDelaysCompletion(t *testing.T) {
	f, enc, _, x := setup(t)
	_, base, err := gather(t, f, enc, x, groups(len(enc.Blocks), 1))
	if err != nil {
		t.Fatal(err)
	}
	slow := groups(len(enc.Blocks), 1)
	slow[0][0].Faults = []sim.Fault{{Slow: 50}}
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

// TestDeviceFailureAborts: an unreplicated block whose device never answers
// fails the gather once every retry round has run out, each of its attempts
// failed by a deadline.
func TestDeviceFailureAborts(t *testing.T) {
	f, enc, _, x := setup(t)
	g := groups(len(enc.Blocks), 1)
	g[1][0].Faults = []sim.Fault{{Fail: 1}}
	_, rep, err := gather(t, f, enc, x, g)
	if !errors.Is(err, fleet.ErrBlockUnavailable) {
		t.Fatalf("err = %v, want fleet.ErrBlockUnavailable", err)
	}
	rounds := 0
	for _, d := range rep.Devices {
		if d.Device == 1 {
			rounds++
			if d.Outcome != sim.Failed {
				t.Fatalf("block 1 round %d ended %v, want failed", d.Round, d.Outcome)
			}
		}
	}
	if rounds != fleet.DefaultMaxRetries+1 {
		t.Fatalf("block 1 ran %d rounds, want %d", rounds, fleet.DefaultMaxRetries+1)
	}
}

// TestFailureSamplingIsSeeded: two sessions on the same seed draw the same
// failures and run the same race, retry jitter included.
func TestFailureSamplingIsSeeded(t *testing.T) {
	f, enc, _, x := setup(t)
	g := groups(len(enc.Blocks), 2)
	for j := range g {
		for r := range g[j] {
			g[j][r].Faults = []sim.Fault{{Fail: 0.5}}
		}
	}
	_, rep1, err1 := gather(t, f, enc, x, g)
	_, rep2, err2 := gather(t, f, enc, x, g)
	if (err1 == nil) != (err2 == nil) {
		t.Fatal("same seed must reproduce the same failure outcome")
	}
	if !slices.Equal(rep1.Devices, rep2.Devices) {
		t.Fatalf("same seed must reproduce identical attempts:\n%+v\n%+v", rep1.Devices, rep2.Devices)
	}
}

func TestConfigValidation(t *testing.T) {
	f, enc, _, x := setup(t)
	if _, _, err := gather(t, f, enc, x, groups(len(enc.Blocks)-1, 1)); err == nil {
		t.Error("profile count mismatch should error")
	}
	g := groups(len(enc.Blocks), 1)
	g[0][0].ComputeRate = 0
	if _, _, err := gather(t, f, enc, x, g); err == nil {
		t.Error("invalid device profile should error")
	}
	if _, _, err := gather(t, f, enc, x[:2], groups(len(enc.Blocks), 1)); err == nil {
		t.Error("input length mismatch should error")
	}
	bare := &coding.Encoding[uint64]{Blocks: enc.Blocks}
	if _, _, err := gather(t, f, bare, x, groups(len(enc.Blocks), 1)); err == nil {
		t.Error("encoding without a scheme should error")
	}
}

// TestRunReplicatedDecodes: a fault-free replicated gather decodes, stores
// two copies, and asks only each block's leader — its answer lands before
// the hedge delay.
func TestRunReplicatedDecodes(t *testing.T) {
	bothCodes(t, func(t *testing.T, f field.Prime, enc *coding.Encoding[uint64], a *matrix.Dense[uint64], x []uint64) {
		y, rep, err := gather(t, f, enc, x, groups(len(enc.Blocks), 2))
		if err != nil {
			t.Fatal(err)
		}
		checkDecodes(t, f, enc, a, x, y)
		if rep.StorageOverhead != 2 {
			t.Fatalf("storage overhead = %g, want 2 (two replicas)", rep.StorageOverhead)
		}
		if len(rep.Devices) != len(enc.Blocks) {
			t.Fatalf("%d attempts, want one leader per block (%d)", len(rep.Devices), len(enc.Blocks))
		}
		for j, d := range rep.Devices {
			if d.Device != j || d.Replica != 0 || d.Outcome != sim.Won {
				t.Fatalf("attempt %d: block %d replica %d %v, want block %d's leader winning", j, d.Device, d.Replica, d.Outcome, j)
			}
		}
	})
}

// TestRunReplicatedMasksStraggler: a leader slower than the hedge delay is
// overtaken by the hedge to its replica, which launches at the cold leader's
// hedge delay: twice its modelled round trip, 2·Latency.
func TestRunReplicatedMasksStraggler(t *testing.T) {
	f, enc, _, x := setup(t)
	slow := groups(len(enc.Blocks), 1)
	slow[0][0].Faults = []sim.Fault{{Slow: 1e6}}
	_, slowRep, err := gather(t, f, enc, x, slow)
	if err != nil {
		t.Fatal(err)
	}
	g := groups(len(enc.Blocks), 2)
	g[0][0].Faults = []sim.Fault{{Slow: 1e6}}
	_, fastRep, err := gather(t, f, enc, x, g)
	if err != nil {
		t.Fatal(err)
	}
	if fastRep.CompletionTime >= slowRep.CompletionTime {
		t.Fatalf("replication should mask the straggler: %v vs %v", fastRep.CompletionTime, slowRep.CompletionTime)
	}
	prior := 2 * 2 * g[0][0].Latency
	for _, d := range fastRep.Devices {
		if d.Device == 0 && (d.Replica == 0) != (d.Outcome == sim.Withdrawn) {
			t.Fatalf("block 0 replica %d ended %v; want the straggler withdrawn and the hedge winning", d.Replica, d.Outcome)
		}
		if d.Device == 0 && d.Replica == 1 && d.Launched != prior {
			t.Fatalf("hedge launched at %v, want %v", d.Launched, prior)
		}
	}
}

// TestRunReplicatedSurvivesFailures: with every block's replica 0 failed,
// each block's hedge carries the gather.
func TestRunReplicatedSurvivesFailures(t *testing.T) {
	f, enc, a, x := setup(t)
	g := groups(len(enc.Blocks), 2)
	for j := range g {
		g[j][0].Faults = []sim.Fault{{Fail: 1}}
	}
	y, rep, err := gather(t, f, enc, x, g)
	if err != nil {
		t.Fatal(err)
	}
	checkDecodes(t, f, enc, a, x, y)
	for _, d := range rep.Devices {
		want := sim.Withdrawn
		if d.Replica == 1 {
			want = sim.Won
		}
		if d.Outcome != want {
			t.Fatalf("block %d replica %d ended %v, want %v", d.Device, d.Replica, d.Outcome, want)
		}
	}
}

func TestRunReplicatedAllReplicasFail(t *testing.T) {
	f, enc, _, x := setup(t)
	g := groups(len(enc.Blocks), 2)
	for r := range g[1] {
		g[1][r].Faults = []sim.Fault{{Fail: 1}}
	}
	if _, _, err := gather(t, f, enc, x, g); !errors.Is(err, fleet.ErrBlockUnavailable) {
		t.Fatalf("err = %v, want fleet.ErrBlockUnavailable", err)
	}
}

func TestRunReplicatedValidation(t *testing.T) {
	f, enc, _, x := setup(t)
	if _, _, err := gather(t, f, enc, x, groups(len(enc.Blocks)-1, 1)); err == nil {
		t.Error("replica-group count mismatch should error")
	}
	g := groups(len(enc.Blocks), 1)
	g[0] = nil
	if _, _, err := gather(t, f, enc, x, g); err == nil {
		t.Error("empty replica group should error")
	}
	g = groups(len(enc.Blocks), 2)
	g[0][1].Latency = -time.Second
	if _, _, err := gather(t, f, enc, x, g); err == nil {
		t.Error("invalid backup profile should error")
	}
	if _, _, err := gather(t, f, enc, x[:1], groups(len(enc.Blocks), 1)); err == nil {
		t.Error("input length mismatch should error")
	}
}

// stageCounts returns how many observations reg holds per pipeline stage.
func stageCounts(reg *obs.Registry) map[string]int64 {
	stages := map[string]int64{}
	for _, fam := range reg.Snapshot().Metrics {
		if fam.Name == obs.MetricStageSeconds {
			for _, sr := range fam.Series {
				stages[sr.Labels["stage"]] += sr.Count
			}
		}
	}
	return stages
}

// TestRunRecordsStageMetrics checks a simulated gather reports the pipeline
// stages under the same metric names a real transport run uses, on the
// virtual clock: one store for the provisioning, one compute per attempt
// that answers, and one gather; the decode stage is the engine's. With two
// replicas, block 0's leader straggles past the hedge and is withdrawn
// unanswered, so its compute is not observed.
func TestRunRecordsStageMetrics(t *testing.T) {
	f, enc, _, x := setup(t)
	for _, replicas := range []int{1, 2} {
		reg := obs.New()
		g := groups(len(enc.Blocks), replicas)
		if replicas == 2 {
			g[0][0].Faults = []sim.Fault{{Slow: 1e6}}
		}
		_, rep, err := gatherOn(t, f, enc, x, g, reg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.StoreTime <= 0 {
			t.Fatalf("StoreTime = %v, want > 0", rep.StoreTime)
		}
		stages := stageCounts(reg)
		if stages[obs.StageStore] != 1 || stages[obs.StageGather] != 1 || stages[obs.StageDecode] != 0 {
			t.Errorf("%d replicas: store/gather/decode counts = %v, want 1/1/0", replicas, stages)
		}
		if got := stages[obs.StageCompute]; got != int64(len(enc.Blocks)) {
			t.Errorf("%d replicas: compute stage observed %d times, want one per winner (%d)", replicas, got, len(enc.Blocks))
		}
	}
}

// TestFailedRunSkipsAggregateStages: a failed gather skips what only a
// success aggregates — the decode price and the completion time — and its
// failed device computes nothing.
func TestFailedRunSkipsAggregateStages(t *testing.T) {
	f, enc, _, x := setup(t)
	reg := obs.New()
	g := groups(len(enc.Blocks), 1)
	g[0][0].Faults = []sim.Fault{{Fail: 1}}
	_, rep, err := gatherOn(t, f, enc, x, g, reg)
	if err == nil {
		t.Fatal("run with a guaranteed failure succeeded")
	}
	if rep.DecodeOps != 0 || rep.CompletionTime != 0 {
		t.Fatalf("failed gather priced decode ops %d and completion %v, want neither", rep.DecodeOps, rep.CompletionTime)
	}
	if got := stageCounts(reg)[obs.StageCompute]; got != int64(len(enc.Blocks)-1) {
		t.Fatalf("compute stage observed %d times, want one per live device (%d)", got, len(enc.Blocks)-1)
	}
}
