package loadgen

import (
	"fmt"
	"sort"
	"time"

	"github.com/scec/scec/internal/fleet"
)

// ReplayStep is one change point in a device's recorded slowdown timeline:
// from At onward the device's compute is Factor× its nominal speed, until
// the next step (factors ≤ 1 mean nominal).
type ReplayStep struct {
	At     time.Duration `json:"atNs"`
	Factor float64       `json:"factor"`
}

// Replay pins per-device straggler factors to a recorded timeline instead of
// (or on top of) random churn: Devices[j] is device j's piecewise-constant
// factor schedule, in virtual-clock order. A nil/short schedule leaves the
// device nominal. Replays compose multiplicatively with churn slowdowns;
// runs meant to reproduce a recorded incident typically set ChurnEvery to
// zero so the replay is the only perturbation.
type Replay struct {
	Devices [][]ReplayStep `json:"devices"`
}

// Validate rejects unsorted schedules and non-positive factors.
func (r *Replay) Validate() error {
	if r == nil {
		return nil
	}
	for j, steps := range r.Devices {
		last := time.Duration(-1)
		for i, s := range steps {
			if s.At < last {
				return fmt.Errorf("loadgen: replay device %d step %d at %v is out of order", j, i, s.At)
			}
			last = s.At
			if s.Factor <= 0 {
				return fmt.Errorf("loadgen: replay device %d step %d has factor %g, need > 0", j, i, s.Factor)
			}
		}
	}
	return nil
}

// FactorAt is device j's slowdown at virtual time t: the factor of its last
// step at or before t, and nominal (1) before the first step, for a device
// without a schedule, on a nil replay, and wherever the recording says ≤ 1.
func (r *Replay) FactorAt(j int, t time.Duration) float64 {
	if r == nil || j >= len(r.Devices) {
		return 1
	}
	steps := r.Devices[j] // sorted by At (Validate)
	i := sort.Search(len(steps), func(i int) bool { return steps[i].At > t })
	if i == 0 {
		return 1
	}
	return max(steps[i-1].Factor, 1)
}

// ReplayFromStragglers converts a live fleet's straggler records
// (fleet.Session.Stragglers) into a replay profile: each device's factor is
// its p95 winning-attempt latency relative to the fleet-median p50, clamped
// to at least 1 — i.e. "make the virtual fleet straggle the way the real one
// just did". Devices appear in digest order; devices without samples stay
// nominal.
func ReplayFromStragglers(digest []fleet.DeviceStats) *Replay {
	var p50s []time.Duration
	for _, d := range digest {
		if d.Samples > 0 && d.P50 > 0 {
			p50s = append(p50s, d.P50)
		}
	}
	baseline := medianDuration(p50s)
	r := &Replay{Devices: make([][]ReplayStep, len(digest))}
	if baseline <= 0 {
		return r
	}
	for j, d := range digest {
		if d.Samples == 0 || d.P95 <= 0 {
			continue
		}
		factor := float64(d.P95) / float64(baseline)
		if factor < 1 {
			factor = 1
		}
		r.Devices[j] = []ReplayStep{{At: 0, Factor: factor}}
	}
	return r
}

func medianDuration(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), v...)
	for i := 1; i < len(s); i++ { // insertion sort; digests are small
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
