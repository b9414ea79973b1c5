package sim

import (
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
)

// TestRunRecordsStageMetrics checks a simulated round reports the pipeline
// stages under the same metric names a real transport run uses, on the
// virtual clock, plus per-block result gauges. Every surviving replica
// records its compute stage; the decode stage is the engine's.
func TestRunRecordsStageMetrics(t *testing.T) {
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(7, 9))
	const m, l, r = 12, 8, 6

	s, err := coding.NewStructured(f, m, r)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, m, l)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := matrix.RandomVec[uint64](f, rng, l)

	for _, replicas := range []int{1, 2} {
		reg := obs.New()
		cfg := groupConfig(s.Devices(), replicas)
		cfg.Metrics = reg
		_, rep, err := gather(t, f, enc, x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.StoreTime <= 0 {
			t.Fatalf("StoreTime = %v, want > 0", rep.StoreTime)
		}

		snap := reg.Snapshot()
		stages := map[string]int64{}
		devices := 0
		var simRuns float64
		for _, fam := range snap.Metrics {
			switch fam.Name {
			case obs.MetricStageSeconds:
				for _, sr := range fam.Series {
					stages[sr.Labels["stage"]] += sr.Count
				}
			case obs.MetricSimDeviceResultSeconds:
				for _, sr := range fam.Series {
					if sr.Value <= 0 {
						t.Errorf("device %s result gauge = %g, want > 0", sr.Labels["device"], sr.Value)
					}
					devices++
				}
			case obs.MetricSimRuns:
				simRuns = fam.Series[0].Value
			}
		}
		// The simulator must export the stages it models: store, one compute
		// per replica, and gather (allocate/encode happen before the round
		// and are recorded by scec.Deploy against the same names; decode is
		// the engine's).
		if stages[obs.StageStore] != 1 || stages[obs.StageGather] != 1 || stages[obs.StageDecode] != 0 {
			t.Errorf("%d replicas: store/gather/decode counts = %v, want 1/1/0", replicas, stages)
		}
		if got := stages[obs.StageCompute]; got != int64(replicas*s.Devices()) {
			t.Errorf("compute stage observed %d times, want one per replica (%d)", got, replicas*s.Devices())
		}
		if devices != s.Devices() {
			t.Errorf("result gauges for %d blocks, want %d", devices, s.Devices())
		}
		if simRuns != 1 {
			t.Errorf("%s = %g, want 1", obs.MetricSimRuns, simRuns)
		}
	}
}

// TestFailedRunSkipsAggregateStages: a failed device aborts before the
// store/gather/decode observations and the runs counter.
func TestFailedRunSkipsAggregateStages(t *testing.T) {
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(7, 9))
	s, err := coding.NewStructured(f, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](f, rng, 6, 4)
	enc, err := s.Encode(a, rng)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	cfg := groupConfig(s.Devices(), 1)
	cfg.Metrics = reg
	cfg.Profiles[0][0].FailProb = 1
	if _, _, err := gather(t, f, enc, matrix.RandomVec[uint64](f, rng, 4), cfg); err == nil {
		t.Fatal("run with a guaranteed failure succeeded")
	}
	for _, fam := range reg.Snapshot().Metrics {
		if fam.Name == obs.MetricSimRuns {
			t.Fatalf("failed run incremented %s", obs.MetricSimRuns)
		}
		if fam.Name == obs.MetricStageSeconds {
			for _, sr := range fam.Series {
				if st := sr.Labels["stage"]; st == obs.StageGather || st == obs.StageDecode {
					t.Fatalf("failed run observed stage %q", st)
				}
			}
		}
	}
}
