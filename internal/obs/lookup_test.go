package obs

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/scec/scec/internal/testenv"
)

// TestRegistryHitAllocs is the budget the query path relies on: bumping a
// series that already exists allocates nothing, however the caller orders
// its labels, and neither does a steady untraced exemplar observation. It
// fails if the lookup goes back to copying, sorting, or building a key
// string on the heap, or if untraced wins mint an exemplar each.
func TestRegistryHitAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	r := New()
	a, b, c := L("alpha", "1"), L("beta", "two"), L("gamma", "127.0.0.1:39402")
	for _, tc := range []struct {
		name   string
		labels []Label
	}{
		{"0 labels", nil},
		{"1 label", []Label{b}},
		{"3 labels sorted", []Label{a, b, c}},
		{"3 labels unsorted", []Label{c, a, b}},
	} {
		// Spelling the variadic out per arity keeps the label slice on the
		// test's stack, as it is at the real call sites.
		hit := func(ls []Label) {
			switch len(ls) {
			case 0:
				r.Counter("hit_total", "help").Inc()
				r.Gauge("hit_gauge", "help").Set(1)
				r.Histogram("hit_seconds", "help", DefLatencyBuckets).Observe(1)
			case 1:
				r.Counter("hit1_total", "help", ls[0]).Inc()
				r.Gauge("hit1_gauge", "help", ls[0]).Set(1)
				r.Histogram("hit1_seconds", "help", DefLatencyBuckets, ls[0]).Observe(1)
			default:
				r.Counter("hit3_total", "help", ls[0], ls[1], ls[2]).Inc()
				r.Gauge("hit3_gauge", "help", ls[0], ls[1], ls[2]).Set(1)
				r.Histogram("hit3_seconds", "help", DefLatencyBuckets, ls[0], ls[1], ls[2]).Observe(1)
			}
		}
		hit(tc.labels) // register
		if n := testing.AllocsPerRun(100, func() { hit(tc.labels) }); n != 0 {
			t.Errorf("%s: warm Counter+Gauge+Histogram lookup = %g allocs, want 0", tc.name, n)
		}
	}
	// The served query's winner histogram records an untraced exemplar on
	// every win; once the bucket holds one, that allocates nothing either.
	h := r.Histogram("hit_winner_seconds", "help", DefLatencyBuckets, b)
	h.ObserveExemplar(0.001, "", "127.0.0.1:39402")
	if n := testing.AllocsPerRun(100, func() {
		r.Histogram("hit_winner_seconds", "help", DefLatencyBuckets, b).ObserveExemplar(0.001, "", "127.0.0.1:39402")
	}); n != 0 {
		t.Errorf("warm untraced ObserveExemplar = %g allocs, want 0", n)
	}
}

// canonicalReference is the key renderer the registry used before the
// lookup path went allocation-free, kept as the reference the new one must
// match byte for byte (series keys decide which bumps share a series).
func canonicalReference(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// TestStageRecorderAllocs: a warm stage span through a StageRecorder, the
// form the query path uses, allocates nothing.
func TestStageRecorderAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	rec := NewStageRecorder(New())
	rec.Start(StageGather).End()
	if n := testing.AllocsPerRun(100, func() { rec.Start(StageGather).End() }); n != 0 {
		t.Fatalf("warm StageRecorder span = %v allocs, want 0", n)
	}
}

// TestAppendKeyMatchesReference: random label sets (distinct keys, any
// order), including more labels than the stack copy holds and a value longer
// than the stack key buffer, render exactly as the reference does and leave
// the caller's slice untouched.
func TestAppendKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1))
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.IntN(26))
		}
		return string(b)
	}
	for trial := 0; trial < 500; trial++ {
		n := rng.IntN(2*keyStackLabels + 1)
		labels := make([]Label, n)
		for i := range labels {
			// The index suffix keeps keys distinct; the random prefix
			// decides the sort order.
			labels[i] = L(fmt.Sprintf("%s%d", word(1+rng.IntN(4)), i), word(rng.IntN(12)))
		}
		if n > 0 && trial%10 == 0 {
			labels[rng.IntN(n)].Value = word(keyBufSize + 1 + rng.IntN(64))
		}
		before := append([]Label(nil), labels...)
		var buf [keyBufSize]byte
		got := string(appendKey(buf[:0], labels))
		if want := canonicalReference(labels); got != want {
			t.Fatalf("trial %d (%d labels): key %q, want %q", trial, n, got, want)
		}
		for i := range labels {
			if labels[i] != before[i] {
				t.Fatalf("trial %d: appendKey reordered the caller's labels", trial)
			}
		}
	}
}

// TestFirstTouchMintsOneSeries races 64 goroutines onto a series nobody has
// registered, each resolving it through the registry on every bump: the
// read-then-write registration must mint exactly one family and one series
// and lose no increment. Run under -race in CI.
func TestFirstTouchMintsOneSeries(t *testing.T) {
	r := New()
	const goroutines, perG = 64, 200
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				r.Counter("first_touch_total", "help", L("b", "2"), L("a", "1")).Inc()
			}
		}()
	}
	close(start)
	wg.Wait()
	snap := r.Snapshot()
	if len(snap.Metrics) != 1 || len(snap.Metrics[0].Series) != 1 {
		t.Fatalf("registry holds %+v, want one family with one series", snap.Metrics)
	}
	if got := snap.Metrics[0].Series[0].Value; got != goroutines*perG {
		t.Fatalf("counter = %g, want %d", got, goroutines*perG)
	}
}

// BenchmarkRegistryLookupHit prices one bump of an existing one-label
// series resolved through the registry — what every instrumented call site
// on the query path pays — alone and with every core doing it at once.
func BenchmarkRegistryLookupHit(b *testing.B) {
	r := New()
	bump := func() { r.Counter("bench_total", "help", L("kind", "compute")).Inc() }
	bump()
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bump()
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				bump()
			}
		})
	})
}
