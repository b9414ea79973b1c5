package sim

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
)

// Remark 1 of the paper observes that redundancy can also buy a processing-
// delay guarantee, and §VI leaves fault handling to future work. This file
// implements the simplest sound mechanism on top of the unchanged coding
// design: block replication. Each logical coded block B_j·T is provisioned
// on one or more devices; the user consumes the first replica that responds
// and ignores stragglers and failures. Security is unaffected — every
// replica of block j holds exactly the rows of B_j·T, so the per-device
// view is the same as in the base scheme (replicas of the *same* block
// learn nothing more together; replicas of *different* blocks colluding is
// the §VI threat model handled by coding.CollusionScheme).
//
// This file studies the mechanism under the virtual clock; internal/fleet is
// its production counterpart over the real TCP transport, adding hedging,
// retries, circuit breakers, and background standby self-repair.

// ErrAllReplicasFailed is returned when every replica of some logical block
// failed, making decoding impossible.
var ErrAllReplicasFailed = errors.New("sim: all replicas of a block failed")

// ReplicatedConfig configures a replicated run.
type ReplicatedConfig struct {
	// Replicas[j] lists the device profiles hosting copies of coded block
	// j. Every block needs at least one replica.
	Replicas [][]DeviceProfile
	// UserComputeRate is the user's field-ops-per-second rate for decoding.
	UserComputeRate float64
	// Seed drives failure sampling.
	Seed uint64
}

// ReplicaReport is one replica's outcome.
type ReplicaReport struct {
	// Block is the logical coded-block index, Replica the copy index.
	Block, Replica int
	// ResultArrives is when this replica's result reaches the user.
	ResultArrives time.Duration
	// Failed reports whether the replica never responded.
	Failed bool
	// Used reports whether the user consumed this replica's result.
	Used bool
}

// ReplicatedReport summarizes a replicated run.
type ReplicatedReport struct {
	// Replicas holds every replica's outcome, grouped by block.
	Replicas []ReplicaReport
	// CompletionTime is when the user finished decoding: the slowest block's
	// fastest surviving replica, plus decode time.
	CompletionTime time.Duration
	// StorageOverhead is the ratio of provisioned coded rows (across all
	// replicas) to the m+r rows the base scheme stores.
	StorageOverhead float64
}

// RunReplicated simulates the replicated protocol: every replica of every
// block computes independently; per block the earliest non-failed result is
// consumed; decoding proceeds once every block has a survivor. Replicas are
// priced and the result decoded exactly as in Run, whatever the code.
func RunReplicated[E comparable](f field.Field[E], enc *coding.Encoding[E], x []E, cfg ReplicatedConfig) ([]E, ReplicatedReport, error) {
	if enc.Code == nil {
		return nil, ReplicatedReport{}, errors.New("sim: encoding has no code attached")
	}
	if len(cfg.Replicas) != len(enc.Blocks) {
		return nil, ReplicatedReport{}, fmt.Errorf("sim: %d replica groups for %d blocks", len(cfg.Replicas), len(enc.Blocks))
	}
	if cfg.UserComputeRate <= 0 {
		return nil, ReplicatedReport{}, fmt.Errorf("sim: user compute rate %g must be positive", cfg.UserComputeRate)
	}
	l := len(x)
	if l != enc.Blocks[0].Cols() {
		return nil, ReplicatedReport{}, fmt.Errorf("sim: input vector length %d, coded rows have %d columns", l, enc.Blocks[0].Cols())
	}

	rng := rand.New(rand.NewPCG(cfg.Seed, 0x3e911ca))
	rep := ReplicatedReport{}
	coded := enc.Code.M() + enc.Code.R()
	y := make([]E, 0, coded)
	var latest time.Duration
	provisionedRows := 0

	for j, group := range cfg.Replicas {
		if len(group) == 0 {
			return nil, ReplicatedReport{}, fmt.Errorf("sim: block %d has no replicas", j)
		}
		rows := enc.Blocks[j].Rows()
		best := -1
		var bestArrive time.Duration
		groupStart := len(rep.Replicas)
		for rIdx, p := range group {
			if err := p.Validate(); err != nil {
				return nil, ReplicatedReport{}, fmt.Errorf("sim: block %d replica %d: %w", j, rIdx, err)
			}
			provisionedRows += rows
			arrive := DeviceRoundTime(rows, l, 1, p)
			failed := rng.Float64() < p.FailProb
			rep.Replicas = append(rep.Replicas, ReplicaReport{
				Block: j, Replica: rIdx, ResultArrives: arrive, Failed: failed,
			})
			if failed {
				continue
			}
			if best < 0 || arrive < bestArrive {
				best, bestArrive = rIdx, arrive
			}
		}
		if best < 0 {
			return nil, rep, fmt.Errorf("%w: block %d (%d replicas)", ErrAllReplicasFailed, j, len(group))
		}
		rep.Replicas[groupStart+best].Used = true
		y = append(y, enc.ComputeDevice(f, j, x)...)
		if bestArrive > latest {
			latest = bestArrive
		}
	}

	ax, err := enc.Code.Decode(y)
	if err != nil {
		return nil, rep, fmt.Errorf("sim: decode: %w", err)
	}
	rep.CompletionTime = latest + seconds(float64(DecodeOps(enc))/cfg.UserComputeRate)
	rep.StorageOverhead = float64(provisionedRows) / float64(coded)
	return ax, rep, nil
}
