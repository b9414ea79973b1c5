package main

import (
	"context"
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// quantile returns the i-th of n-quantiles of sorted the way Python's
// statistics.quantiles(data, n=n) (the default "exclusive" method) does, so
// a spread computed here matches one computed by a driver in Python. It
// needs at least two values.
func quantile(sorted []float64, i, n int) float64 {
	ld := len(sorted)
	m := ld + 1
	j := i * m / n
	j = max(1, min(j, ld-1))
	delta := float64(i*m - j*n)
	return (sorted[j-1]*(float64(n)-delta) + sorted[j]*delta) / float64(n)
}

// quartiles returns Q1, the median and Q3 of values (unsorted, not empty); a
// single value is all three.
func quartiles(values []float64) (q1, q2, q3 float64) {
	if len(values) == 1 {
		return values[0], values[0], values[0]
	}
	s := slices.Clone(values)
	slices.Sort(s)
	return quantile(s, 1, 4), quantile(s, 2, 4), quantile(s, 3, 4)
}

func median(values []float64) float64 {
	_, q2, _ := quartiles(values)
	return q2
}

// percentile is the nearest-rank p-th percentile of sorted latency samples.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[max(0, min(k, len(sorted)-1))])
}

// cpuTime is the process's user+system CPU time so far: the callers, the
// fleet runtime and the in-process device servers together.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sliceResult is every end-to-end metric measured over one slice of the
// measured phase, plus the p99 that is reported per layer only.
type sliceResult struct {
	P50us       float64 `json:"query_p50_us"`
	P90us       float64 `json:"query_p90_us"`
	P99us       float64 `json:"query_p99_us"`
	QPS         float64 `json:"query_qps"`
	CPUus       float64 `json:"cpu_us_per_query"`
	Allocs      float64 `json:"allocs_per_query"`
	Bytes       float64 `json:"bytes_per_query"`
	Attempted   int     `json:"attempted"`
	Verified    int     `json:"verified"`
	WallSeconds float64 `json:"wall_s"`
}

// loop drives one workload closed-loop: every caller issues its next
// MulVecContext only after the previous reply was verified.
type loop struct {
	call    func(ctx context.Context, x []uint64) ([]uint64, error)
	in      inputs
	callers int
	// lat[c] is caller c's latency buffer in nanoseconds, reused across
	// slices so the harness itself allocates nothing per query.
	lat    [][]uint32
	merged []uint32
}

func newLoop(call func(context.Context, []uint64) ([]uint64, error), in inputs, callers int) *loop {
	l := &loop{call: call, in: in, callers: callers, lat: make([][]uint32, callers)}
	for c := range l.lat {
		l.lat[c] = make([]uint32, 0, 1<<20/callers+1<<14)
	}
	return l
}

// caller runs one closed loop until deadline and returns its tally.
func (l *loop) caller(c int, deadline time.Time) tally {
	var t tally
	ctx := context.Background()
	buf := l.lat[c][:0]
	for i := c * 7; ; i++ {
		k := i % queryVectors
		start := time.Now()
		y, err := l.call(ctx, l.in.xs[k])
		end := time.Now()
		if t.record(y, err, l.in.want[k]) {
			buf = append(buf, uint32(min(end.Sub(start), math.MaxUint32)))
		}
		if !end.Before(deadline) {
			break
		}
	}
	l.lat[c] = buf
	return t
}

// slice measures one slice of length d.
func (l *loop) slice(d time.Duration) sliceResult {
	var before, after runtime.MemStats
	tallies := make([]tally, l.callers)
	var wg sync.WaitGroup

	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < l.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tallies[c] = l.caller(c, deadline)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&after)

	var t tally
	for _, o := range tallies {
		t.add(o)
	}
	l.merged = l.merged[:0]
	for _, buf := range l.lat {
		l.merged = append(l.merged, buf...)
	}
	slices.Sort(l.merged)

	verified := t.attempted - t.failed
	r := sliceResult{
		P50us:       percentile(l.merged, 0.50) / 1e3,
		P90us:       percentile(l.merged, 0.90) / 1e3,
		P99us:       percentile(l.merged, 0.99) / 1e3,
		Attempted:   t.attempted,
		Verified:    verified,
		WallSeconds: wall.Seconds(),
	}
	if verified > 0 {
		n := float64(verified)
		r.QPS = n / wall.Seconds()
		r.CPUus = float64(cpu.Nanoseconds()) / 1e3 / n
		r.Allocs = float64(after.Mallocs-before.Mallocs) / n
		r.Bytes = float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	return r
}

// phase is a measured phase: the results of its slices, in order.
type phase []sliceResult

func (l *loop) measure(n int, d time.Duration) phase {
	p := make(phase, n)
	for i := range p {
		p[i] = l.slice(d)
	}
	return p
}

// tally is the phase's outcome count over all its slices.
func (p phase) tally() tally {
	var t tally
	for _, s := range p {
		t.add(tally{attempted: s.Attempted, failed: s.Attempted - s.Verified})
	}
	return t
}

// column extracts one metric across the slices.
func (p phase) column(get func(sliceResult) float64) []float64 {
	out := make([]float64, len(p))
	for i, s := range p {
		out[i] = get(s)
	}
	return out
}

// lowerQuartile and upperQuartile are the headline estimators: neighbour
// noise on a shared host only ever adds time, so the quiet quarter of the
// slices is the steadier estimate of what the code costs.
func lowerQuartile(values []float64) float64 {
	q1, _, _ := quartiles(values)
	return q1
}

func upperQuartile(values []float64) float64 {
	_, _, q3 := quartiles(values)
	return q3
}
