package engine

import (
	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/fleet"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/sim"
)

// SimConfig configures the simulator-backed executor.
type SimConfig struct {
	// Profiles returns the replica group hosting coded block j: one profile
	// per device holding a copy. Nil, or an empty group, means one
	// sim.DefaultProfile() device — the paper's unreplicated protocol.
	Profiles func(j int) []sim.DeviceProfile
	// Seed drives the simulated devices' failure draws and retry jitter.
	Seed uint64
	// Metrics receives the simulated session's telemetry. Nil means
	// obs.Default().
	Metrics *obs.Registry
}

// SimExecutor is the fleet executor over a simulated session
// (fleet.Simulate): the fleet's own gather races modelled replicas on a
// virtual clock, the devices answer with the same kernels the local backend
// runs, and the session retains each gather's report.
type SimExecutor[E comparable] struct {
	Executor[E]
	s *fleet.Session[E]
}

// NewSim builds a simulator executor over an encoding.
func NewSim[E comparable](f field.Field[E], enc *coding.Encoding[E], cfg SimConfig) (*SimExecutor[E], error) {
	groups := make([][]sim.DeviceProfile, len(enc.Blocks))
	for j := range groups {
		if cfg.Profiles != nil {
			groups[j] = cfg.Profiles(j)
		}
		if len(groups[j]) == 0 {
			groups[j] = []sim.DeviceProfile{sim.DefaultProfile()}
		}
	}
	s, err := fleet.Simulate(f, enc, groups, cfg.Seed, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	return &SimExecutor[E]{Executor: WrapSession(s, true), s: s}, nil
}

// Name implements Executor.
func (e *SimExecutor[E]) Name() string { return "sim" }

// LastReport returns the most recent gather's virtual-clock report (also
// retained for failed gathers) and whether any gather has run.
func (e *SimExecutor[E]) LastReport() (sim.Report, bool) { return e.s.SimReport() }
