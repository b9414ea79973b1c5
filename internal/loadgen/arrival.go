package loadgen

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"
)

// Arrival produces a request schedule: Gap returns the inter-arrival time to
// the next request at the given offered rate (requests per second). The
// generator calls Gap from a single pacing goroutine, so implementations may
// keep unsynchronized state (Bursty does). Schedules are deterministic given
// the generator's seeded RNG.
type Arrival interface {
	// Name identifies the schedule in reports ("poisson", "uniform", ...).
	Name() string
	// Gap returns the time between the previous request's intended arrival
	// and the next one's.
	Gap(rng *rand.Rand, rate float64) time.Duration
}

// Uniform is the deterministic schedule: requests arrive exactly 1/rate
// apart. It isolates queueing effects from arrival-process variance.
type Uniform struct{}

// Name implements Arrival.
func (Uniform) Name() string { return "uniform" }

// Gap implements Arrival.
func (Uniform) Gap(_ *rand.Rand, rate float64) time.Duration {
	return time.Duration(float64(time.Second) / rate)
}

// Poisson is the memoryless open-loop schedule: exponentially distributed
// gaps with mean 1/rate, the standard model for aggregate arrivals from many
// independent users.
type Poisson struct{}

// Name implements Arrival.
func (Poisson) Name() string { return "poisson" }

// Gap implements Arrival.
func (Poisson) Gap(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

// Bursty alternates Poisson bursts at Factor× the offered rate with idle
// gaps sized so the long-run mean rate still equals the offered rate. It
// models synchronized client behavior (cache expiry, retry storms, top-of-
// the-hour cron fans) that a smooth schedule would average away.
type Bursty struct {
	// Factor is the within-burst rate multiplier (> 1). Zero means 4.
	Factor float64
	// Length is the number of requests per burst. Zero means 16.
	Length int

	left int // requests remaining in the current burst
}

// Name implements Arrival.
func (b *Bursty) Name() string { return "bursty" }

// Gap implements Arrival.
func (b *Bursty) Gap(rng *rand.Rand, rate float64) time.Duration {
	factor := b.Factor
	if factor <= 1 {
		factor = 4
	}
	length := b.Length
	if length <= 0 {
		length = 16
	}
	if b.left > 0 {
		b.left--
		return time.Duration(rng.ExpFloat64() / (rate * factor) * float64(time.Second))
	}
	b.left = length - 1
	// The idle gap restores the mean: a cycle of `length` requests must span
	// length/rate on average, and the burst itself covers length/(rate·factor).
	idle := float64(length) / rate * (1 - 1/factor)
	return time.Duration((rng.ExpFloat64()/(rate*factor) + idle) * float64(time.Second))
}

// ParseArrival maps a CLI spec to a schedule: "poisson", "uniform", or
// "bursty" (optionally "bursty:FACTORxLENGTH", e.g. "bursty:8x32").
func ParseArrival(spec string) (Arrival, error) {
	switch {
	case spec == "" || spec == "poisson":
		return Poisson{}, nil
	case spec == "uniform":
		return Uniform{}, nil
	case spec == "bursty":
		return &Bursty{}, nil
	case strings.HasPrefix(spec, "bursty:"):
		var factor float64
		var length int
		if _, err := fmt.Sscanf(spec, "bursty:%gx%d", &factor, &length); err != nil {
			return nil, fmt.Errorf("loadgen: bad bursty spec %q (want bursty:FACTORxLENGTH)", spec)
		}
		if factor <= 1 || length <= 0 || !finitePositive(factor) {
			return nil, fmt.Errorf("loadgen: bursty factor must be > 1 and length > 0, got %q", spec)
		}
		return &Bursty{Factor: factor, Length: length}, nil
	default:
		return nil, fmt.Errorf("loadgen: unknown arrival schedule %q (want poisson, uniform, or bursty[:FxL])", spec)
	}
}
