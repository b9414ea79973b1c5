package loadgen

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestSlotRoundTrip(t *testing.T) {
	// Every representative value must land in a bucket whose upper edge is
	// >= the value and within the documented relative error.
	values := []int64{0, 1, 2, 127, 128, 129, 191, 192, 255, 256, 1000, 4096,
		1e6, 1e9, 123456789, math.MaxInt64 / 2, math.MaxInt64}
	for _, v := range values {
		i := slot(v)
		if i < 0 || i >= numSlots {
			t.Fatalf("slot(%d) = %d out of range [0, %d)", v, i, numSlots)
		}
		up := slotUpper(i)
		if up < v {
			t.Errorf("slotUpper(slot(%d)) = %d < value", v, up)
		}
		if v > 0 && float64(up-v)/float64(v) > 0.016 {
			t.Errorf("slot(%d): upper edge %d overshoots by %.2f%%", v, up, 100*float64(up-v)/float64(v))
		}
		// Bucket edges must be consistent: the value right above this bucket's
		// edge maps to a later bucket.
		if up < math.MaxInt64 && slot(up+1) <= i {
			t.Errorf("slot(%d)=%d but slot(upper+1=%d)=%d not later", v, i, up+1, slot(up+1))
		}
	}
}

func TestSlotUpperMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < numSlots; i++ {
		up := slotUpper(i)
		if up <= prev {
			t.Fatalf("slotUpper(%d) = %d <= slotUpper(%d) = %d", i, up, i-1, prev)
		}
		prev = up
	}
}

func TestRecorderQuantileVsReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	r := NewRecorder()
	n := 10000
	samples := make([]float64, n)
	for i := range samples {
		// Log-uniform over ~9 orders of magnitude, the shape of a latency
		// distribution with a heavy tail. Integer nanoseconds, matching what
		// the recorder actually stores.
		v := math.Floor(math.Exp(rng.Float64() * math.Log(1e9)))
		samples[i] = v
		r.Record(time.Duration(v))
	}
	sort.Float64s(samples)
	if r.Count() != int64(n) {
		t.Fatalf("count = %d, want %d", r.Count(), n)
	}
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0} {
		rank := int(math.Ceil(q * float64(n)))
		if rank < 1 {
			rank = 1
		}
		want := samples[rank-1]
		got := float64(r.Quantile(q))
		// The recorder reports the containing bucket's upper edge, so it may
		// exceed the true sample by the quantization error but never undershoot
		// beyond it.
		if got < want*(1-0.016) || got > want*(1+0.017) {
			t.Errorf("Quantile(%g) = %g, reference %g (%.2f%% off)", q, got, want, 100*(got-want)/want)
		}
	}
	if r.Quantile(1.0) > time.Duration(samples[n-1])+1 {
		t.Errorf("Quantile(1) = %v beyond observed max %g", r.Quantile(1.0), samples[n-1])
	}
}

func TestRecorderEmptyAndClamp(t *testing.T) {
	r := NewRecorder()
	if r.Quantile(0.5) != 0 || r.Min() != 0 || r.Max() != 0 || r.Mean() != 0 {
		t.Fatalf("empty recorder not all-zero: %v", r)
	}
	r.Record(-5 * time.Second)
	if r.Count() != 1 || r.Min() != 0 || r.Max() != 0 {
		t.Fatalf("negative sample should clamp to zero: %v", r)
	}
}

func TestRecorderMinMaxMean(t *testing.T) {
	r := NewRecorder()
	for _, d := range []time.Duration{10, 20, 30} {
		r.Record(d * time.Millisecond)
	}
	if r.Min() != 10*time.Millisecond || r.Max() != 30*time.Millisecond {
		t.Fatalf("min/max = %v/%v", r.Min(), r.Max())
	}
	if r.Mean() != 20*time.Millisecond {
		t.Fatalf("mean = %v, want 20ms", r.Mean())
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 1))
			for i := 0; i < per; i++ {
				r.Record(time.Duration(rng.Int64N(int64(time.Minute))))
			}
		}(uint64(w))
	}
	wg.Wait()
	if r.Count() != workers*per {
		t.Fatalf("count = %d, want %d", r.Count(), workers*per)
	}
}
