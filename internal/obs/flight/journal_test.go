package flight

import (
	"encoding/json"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
	"github.com/scec/scec/internal/testenv"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); int(k) < numKinds; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has no wire name", k)
		}
		got, ok := ParseKind(name)
		if !ok {
			t.Fatalf("ParseKind(%q) did not resolve", name)
		}
		if got != k {
			t.Fatalf("ParseKind(%q) = %v, want %v", name, got, k)
		}
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("JSON round trip of %v came back %v", k, back)
		}
	}
	if _, ok := ParseKind("no-such-kind"); ok {
		t.Fatal("ParseKind accepted an unknown name")
	}
}

func TestPublishSnapshotTail(t *testing.T) {
	j := New(Options{Capacity: 16, Metrics: obs.New()})
	j.Publish(KindBreakerOpen, "dev-a", 3, 0)
	j.PublishDetail(KindRehostOK, "dev-b", "dev-a", 7, 0)
	evs := j.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("Snapshot returned %d events, want 2", len(evs))
	}
	if evs[0].Kind != KindBreakerOpen || evs[0].Actor != "dev-a" || evs[0].A != 3 {
		t.Fatalf("first event mangled: %+v", evs[0])
	}
	if evs[1].Kind != KindRehostOK || evs[1].Detail != "dev-a" || evs[1].A != 7 {
		t.Fatalf("second event mangled: %+v", evs[1])
	}
	if j.Seq() != 2 {
		t.Fatalf("Seq = %d, want 2", j.Seq())
	}
}

// TestWraparound drives the ring far past its capacity and checks the
// invariants a wrapped snapshot must hold: at most capacity events, strictly
// increasing sequence numbers, and a suffix of what was published.
func TestWraparound(t *testing.T) {
	const cap = 8
	j := New(Options{Capacity: cap, Metrics: obs.New()})
	const total = 1000
	for i := 0; i < total; i++ {
		j.Publish(KindRetry, "dev", int64(i), 0)
	}
	evs := j.Snapshot()
	if len(evs) == 0 || len(evs) > cap {
		t.Fatalf("wrapped snapshot has %d events, want 1..%d", len(evs), cap)
	}
	for i, ev := range evs {
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot not strictly increasing at %d: %d then %d", i, evs[i-1].Seq, ev.Seq)
		}
		// The ring retains the most recent events: A tracks the publish index.
		if want := int64(ev.Seq - 1); ev.A != want {
			t.Fatalf("event seq %d carries A=%d, want %d", ev.Seq, ev.A, want)
		}
	}
	if last := evs[len(evs)-1]; last.Seq != total {
		t.Fatalf("newest retained seq = %d, want %d", last.Seq, total)
	}
}

// TestCountSinceMatchesSnapshot: counting in place gives the count a filter
// over Snapshot gives, for every kind and cutoff, on a wrapped ring.
func TestCountSinceMatchesSnapshot(t *testing.T) {
	vc := trace.NewVirtualClock(time.Unix(1000, 0))
	j := New(Options{Capacity: 16, Clock: vc, Metrics: obs.New()})
	for i := range 100 {
		vc.Set(time.Duration(i) * time.Millisecond)
		j.Publish(Kind(i%3), "dev", int64(i), 0)
	}
	evs := j.Snapshot()
	for k := Kind(0); k < 4; k++ {
		for _, ev := range evs {
			want := 0
			for _, e := range evs {
				if e.Kind == k && e.At >= ev.At {
					want++
				}
			}
			if got := j.CountSince(k, ev.At); got != want {
				t.Fatalf("CountSince(%v, seq %d) = %d, want %d", k, ev.Seq, got, want)
			}
		}
	}
}

// TestCountSinceAllocs: a journal rule evaluation allocates nothing.
func TestCountSinceAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	j := New(Options{Capacity: 64, Metrics: obs.New()})
	for i := range 100 {
		j.Publish(KindRetry, "dev", int64(i), 0)
	}
	if n := testing.AllocsPerRun(100, func() { j.CountSince(KindRetry, 0) }); n != 0 {
		t.Fatalf("Journal.CountSince allocates %v times per call, want 0", n)
	}
}

// TestConcurrentHammer publishes from many goroutines while snapshotting
// concurrently; under -race this is the journal's lock-discipline proof.
func TestConcurrentHammer(t *testing.T) {
	j := New(Options{Capacity: 64, Metrics: obs.New()})
	const (
		writers    = 8
		perWriter  = 2000
		snapshots  = 200
		totalAfter = writers * perWriter
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				j.Publish(Kind(i%int(numKinds)), "writer", int64(w), int64(i))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < snapshots; i++ {
			evs := j.Snapshot()
			for k := 1; k < len(evs); k++ {
				if evs[k].Seq <= evs[k-1].Seq {
					t.Errorf("concurrent snapshot not strictly increasing: %d then %d", evs[k-1].Seq, evs[k].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	if j.Seq() != totalAfter {
		t.Fatalf("Seq = %d after hammer, want %d (no publish may be lost or doubled)", j.Seq(), totalAfter)
	}
}

// TestVirtualClockOrdering runs the journal on a simulator clock and checks
// event timestamps reflect virtual time, so journal events align with
// virtual-clock traces.
func TestVirtualClockOrdering(t *testing.T) {
	base := time.Unix(1000, 0)
	vc := trace.NewVirtualClock(base)
	j := New(Options{Capacity: 8, Clock: vc, Metrics: obs.New()})
	j.Publish(KindShed, "", 1, 0)
	vc.Set(250 * time.Millisecond)
	j.Publish(KindShed, "", 2, 0)
	vc.Set(time.Second)
	j.Publish(KindSLOBreach, "sim", 3, 0)
	evs := j.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	wantAt := []int64{
		base.UnixNano(),
		base.Add(250 * time.Millisecond).UnixNano(),
		base.Add(time.Second).UnixNano(),
	}
	for i, ev := range evs {
		if ev.At != wantAt[i] {
			t.Fatalf("event %d at %d, want virtual %d", i, ev.At, wantAt[i])
		}
	}
	if evs[0].At >= evs[1].At || evs[1].At >= evs[2].At {
		t.Fatal("virtual timestamps not ordered")
	}
	cnt := j.CountSince(KindShed, base.Add(100*time.Millisecond).UnixNano())
	if cnt != 1 {
		t.Fatalf("CountSince(shed, +100ms) = %d, want 1", cnt)
	}
}

func TestNilJournalIsNoOp(t *testing.T) {
	var j *Journal
	j.Publish(KindRetry, "x", 1, 2) // must not panic
	j.PublishDetail(KindShed, "x", "d", 1, 2)
	if got := j.Snapshot(); got != nil {
		t.Fatalf("nil journal Snapshot = %v, want nil", got)
	}
	if j.Seq() != 0 || j.CountSince(KindRetry, 0) != 0 {
		t.Fatal("nil journal must report empty")
	}
}

func TestEventCounters(t *testing.T) {
	reg := obs.New()
	j := New(Options{Capacity: 8, Metrics: reg})
	j.Publish(KindBreakerOpen, "d", 0, 0)
	j.Publish(KindBreakerOpen, "d", 0, 0)
	j.Publish(KindHedgeWin, "d", 0, 0)
	var open, hedge float64
	for _, fam := range reg.Snapshot().Metrics {
		if fam.Name != obs.MetricFlightEventsTotal {
			continue
		}
		for _, s := range fam.Series {
			switch s.Labels["kind"] {
			case KindBreakerOpen.String():
				open = s.Value
			case KindHedgeWin.String():
				hedge = s.Value
			}
		}
	}
	if open != 2 || hedge != 1 {
		t.Fatalf("event counters open=%v hedge=%v, want 2 and 1", open, hedge)
	}
}

// TestPublishAllocs is the journal's cost guard: a publish on the hot path
// (kind counter already registered) allocates nothing. Its time is a row of
// the end-to-end benchmark (obs.journal_publish_ns), not an assertion here.
func TestPublishAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	j := New(Options{Capacity: 8, Metrics: obs.New()})
	j.Publish(KindRetry, "warm", 0, 0) // registers the per-kind counter
	if n := testing.AllocsPerRun(100, func() { j.Publish(KindRetry, "bench", 1, 2) }); n != 0 {
		t.Fatalf("Journal.Publish allocates %v times per event, want 0", n)
	}
}

func BenchmarkPublish(b *testing.B) {
	j := New(Options{Capacity: DefaultCapacity, Metrics: obs.New()})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			j.Publish(KindRetry, "bench", 1, 2)
		}
	})
}
