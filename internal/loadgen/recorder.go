// Package loadgen is the heavy-traffic SLO harness: an open-loop load
// generator (Poisson, uniform, and bursty arrival schedules at a configured
// offered QPS) that drives any request function — a Served fleet handle, a
// local deployment, or a raw closure — and measures latency against each
// request's *intended* arrival time, so the numbers stay honest when the
// system under test stalls (coordinated-omission-safe measurement). On top
// of the generator sit stepped offered-load sweeps, saturation-knee
// detection, declared-SLO checking, and a virtual-clock scenario engine that
// scales the same sweeps to thousands of simulated devices with churn.
//
// Coordinated omission, briefly: a closed-loop harness (fixed worker pool,
// next request issued only after the previous returns) stops sending while
// the target stalls, so a one-second hiccup contributes one slow sample
// instead of the hundreds of slow requests real users would have
// experienced. The open-loop generator here derives every request's send
// time from the arrival schedule alone and timestamps latency from that
// intended time, so queue delay accrued behind a stall is measured, not
// omitted. RunClosed implements the flawed loop deliberately, as the
// comparison baseline the tests (and EXPERIMENTS.md) use to show the gap.
package loadgen

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Recorder layout: values (nanoseconds) below 2^subBits land in one exact
// linear bucket each; every octave [2^(e-1), 2^e) above is split into
// 2^(subBits-1) equal-width sub-buckets, bounding the relative quantization
// error by 2^(1-subBits) (≈1.6% for subBits = 7). Counts are exact — the
// quantization affects only the reported value, never which sample is
// counted — which is what "exact-count quantiles" means here.
const (
	subBits   = 7
	subCount  = 1 << subBits  // exact buckets below this value
	halfCount = subCount >> 1 // sub-buckets per octave above
	// numOctave covers every positive int64 (bit lengths subBits+1 .. 63).
	numOctave = 63 - subBits
	numSlots  = subCount + numOctave*halfCount
)

// Recorder is a high-resolution log-bucketed latency histogram. All methods
// are safe for concurrent use; recording is a single atomic add on the hot
// path. The zero value is not usable; call NewRecorder.
type Recorder struct {
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	min    atomic.Int64
	max    atomic.Int64
}

// NewRecorder returns an empty recorder covering 1ns to ~292 years with
// ≤1.6% relative value error.
func NewRecorder() *Recorder {
	r := &Recorder{counts: make([]atomic.Int64, numSlots)}
	r.min.Store(math.MaxInt64)
	return r
}

// slot maps a non-negative nanosecond value to its bucket index.
func slot(v int64) int {
	u := uint64(v)
	e := bits.Len64(u)
	if e <= subBits {
		return int(u)
	}
	w := (u - 1<<(e-1)) >> (e - subBits)
	return subCount + (e-subBits-1)*halfCount + int(w)
}

// slotUpper returns the inclusive upper edge (in nanoseconds) of bucket i —
// the conservative value quantiles report.
func slotUpper(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	o := (i - subCount) / halfCount
	w := (i - subCount) % halfCount
	e := o + subBits + 1
	width := int64(1) << (e - subBits)
	return int64(1)<<(e-1) + int64(w+1)*width - 1
}

// Record adds one latency sample. Negative durations clamp to zero.
func (r *Recorder) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	r.counts[slot(v)].Add(1)
	r.count.Add(1)
	r.sum.Add(v)
	for {
		old := r.min.Load()
		if v >= old || r.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := r.max.Load()
		if v <= old || r.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Count returns the number of recorded samples.
func (r *Recorder) Count() int64 { return r.count.Load() }

// Min returns the smallest recorded sample (0 when empty).
func (r *Recorder) Min() time.Duration {
	if r.count.Load() == 0 {
		return 0
	}
	return time.Duration(r.min.Load())
}

// Max returns the largest recorded sample (0 when empty).
func (r *Recorder) Max() time.Duration { return time.Duration(r.max.Load()) }

// Mean returns the arithmetic mean of the recorded samples (0 when empty).
func (r *Recorder) Mean() time.Duration {
	n := r.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(r.sum.Load() / n)
}

// Quantile returns the q-quantile (q in [0, 1]) of the recorded samples:
// the value v such that at least ⌈q·count⌉ samples are ≤ v, reported as the
// containing bucket's upper edge (within 1.6% of the true sample). Returns 0
// when the recorder is empty.
func (r *Recorder) Quantile(q float64) time.Duration {
	n := r.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range r.counts {
		cum += r.counts[i].Load()
		if cum >= rank {
			up := slotUpper(i)
			// Never report beyond the observed extremes: the top bucket's
			// edge can overshoot the true maximum by the quantization width.
			if mx := r.max.Load(); up > mx {
				up = mx
			}
			return time.Duration(up)
		}
	}
	return time.Duration(r.max.Load())
}

// String summarizes the recorder for logs and test failures.
func (r *Recorder) String() string {
	return fmt.Sprintf("n=%d p50=%v p99=%v p999=%v max=%v",
		r.Count(), r.Quantile(0.50), r.Quantile(0.99), r.Quantile(0.999), r.Max())
}
