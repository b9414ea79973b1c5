package sim

import (
	"errors"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
)

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
		if enc.Scheme != nil {
			t.Fatal("the collusion encoding should carry no structured scheme")
		}
		check(t, f, enc, a, x)
	})
}

func replicatedConfig(blocks, replicas int) ReplicatedConfig {
	groups := make([][]DeviceProfile, blocks)
	for j := range groups {
		groups[j] = make([]DeviceProfile, replicas)
		for r := range groups[j] {
			groups[j][r] = DefaultProfile()
		}
	}
	return ReplicatedConfig{Replicas: groups, UserComputeRate: 1e9, Seed: 1}
}

func TestRunReplicatedDecodes(t *testing.T) {
	bothCodes(t, testRunReplicatedDecodes)
}

func testRunReplicatedDecodes(t *testing.T, f field.Prime, enc *coding.Encoding[uint64], a *matrix.Dense[uint64], x []uint64) {
	cfg := replicatedConfig(len(enc.Blocks), 2)
	got, rep, err := RunReplicated(f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.MulVec[uint64](f, a, x)
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("replicated pipeline decoded the wrong result")
		}
	}
	if rep.StorageOverhead != 2 {
		t.Fatalf("storage overhead = %g, want 2 (two replicas)", rep.StorageOverhead)
	}
	usedPerBlock := map[int]int{}
	for _, r := range rep.Replicas {
		if r.Used {
			usedPerBlock[r.Block]++
		}
	}
	for j := 0; j < len(enc.Blocks); j++ {
		if usedPerBlock[j] != 1 {
			t.Fatalf("block %d consumed %d replicas, want exactly 1", j, usedPerBlock[j])
		}
	}
}

func TestRunReplicatedMasksStraggler(t *testing.T) {
	f, enc, _, x := setup(t)

	// Unreplicated baseline with a severe straggler on device 0.
	slow := uniformConfig(len(enc.Blocks))
	slow.Profiles[0].StragglerFactor = 1000
	_, slowRep, err := Run(f, enc, x, slow)
	if err != nil {
		t.Fatal(err)
	}

	// Replicated: the same straggler, but each block has a nominal backup.
	cfg := replicatedConfig(len(enc.Blocks), 2)
	cfg.Replicas[0][0].StragglerFactor = 1000
	_, fastRep, err := RunReplicated(f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fastRep.CompletionTime >= slowRep.CompletionTime {
		t.Fatalf("replication should mask the straggler: %v vs %v", fastRep.CompletionTime, slowRep.CompletionTime)
	}
	// The straggling replica must not be the one consumed.
	for _, r := range fastRep.Replicas {
		if r.Block == 0 && r.Replica == 0 && r.Used {
			t.Fatal("the straggling replica was consumed despite a faster backup")
		}
	}
}

func TestRunReplicatedSurvivesFailures(t *testing.T) {
	f, enc, a, x := setup(t)
	cfg := replicatedConfig(len(enc.Blocks), 2)
	// Fail the first replica of every block; the backups carry the run.
	for j := range cfg.Replicas {
		cfg.Replicas[j][0].FailProb = 1
	}
	got, rep, err := RunReplicated(f, enc, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.MulVec[uint64](f, a, x)
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("wrong result after failover")
		}
	}
	for _, r := range rep.Replicas {
		if r.Replica == 0 && !r.Failed {
			t.Fatal("primary replicas should all be failed")
		}
		if r.Replica == 0 && r.Used {
			t.Fatal("failed replica marked used")
		}
	}
}

func TestRunReplicatedAllReplicasFail(t *testing.T) {
	f, enc, _, x := setup(t)
	cfg := replicatedConfig(len(enc.Blocks), 2)
	for r := range cfg.Replicas[1] {
		cfg.Replicas[1][r].FailProb = 1
	}
	if _, _, err := RunReplicated(f, enc, x, cfg); !errors.Is(err, ErrAllReplicasFailed) {
		t.Fatalf("err = %v, want ErrAllReplicasFailed", err)
	}
}

func TestRunReplicatedValidation(t *testing.T) {
	f, enc, _, x := setup(t)

	cfg := replicatedConfig(len(enc.Blocks)-1, 1)
	if _, _, err := RunReplicated(f, enc, x, cfg); err == nil {
		t.Error("replica-group count mismatch should error")
	}

	cfg = replicatedConfig(len(enc.Blocks), 1)
	cfg.Replicas[0] = nil
	if _, _, err := RunReplicated(f, enc, x, cfg); err == nil {
		t.Error("empty replica group should error")
	}

	cfg = replicatedConfig(len(enc.Blocks), 1)
	cfg.UserComputeRate = 0
	if _, _, err := RunReplicated(f, enc, x, cfg); err == nil {
		t.Error("zero user compute rate should error")
	}

	cfg = replicatedConfig(len(enc.Blocks), 1)
	cfg.Replicas[0][0].Latency = -time.Second
	if _, _, err := RunReplicated(f, enc, x, cfg); err == nil {
		t.Error("invalid profile should error")
	}

	cfg = replicatedConfig(len(enc.Blocks), 1)
	if _, _, err := RunReplicated(f, enc, x[:1], cfg); err == nil {
		t.Error("input length mismatch should error")
	}
}

func TestSingleReplicaMatchesBaseRunResult(t *testing.T) {
	bothCodes(t, func(t *testing.T, f field.Prime, enc *coding.Encoding[uint64], _ *matrix.Dense[uint64], x []uint64) {
		base := uniformConfig(len(enc.Blocks))
		wantVec, wantRep, err := Run(f, enc, x, base)
		if err != nil {
			t.Fatal(err)
		}
		cfg := replicatedConfig(len(enc.Blocks), 1)
		got, rep, err := RunReplicated(f, enc, x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != wantVec[i] {
				t.Fatal("single-replica result differs from base run")
			}
		}
		if rep.StorageOverhead != 1 {
			t.Fatalf("single replica overhead = %g, want 1", rep.StorageOverhead)
		}
		// One replica per block is the base protocol: same device timelines,
		// same decode price.
		if rep.CompletionTime != wantRep.CompletionTime {
			t.Fatalf("single-replica completion %v, base run %v", rep.CompletionTime, wantRep.CompletionTime)
		}
	})
}
