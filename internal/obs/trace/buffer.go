package trace

import (
	"sync"
	"sync/atomic"
)

// ring is a lock-free fixed-size span ring: writers claim a slot with one
// atomic increment and publish with one atomic pointer store, so the
// query hot path never takes a lock to retain a span. Readers snapshot
// best-effort — a concurrent writer may replace a slot mid-snapshot, which
// costs at worst one stale or missing span, never a torn one.
type ring struct {
	slots  []atomic.Pointer[SpanData]
	cursor atomic.Uint64
}

func newRing(capacity int) *ring {
	if capacity < 1 {
		capacity = 1
	}
	return &ring{slots: make([]atomic.Pointer[SpanData], capacity)}
}

// put stores a copy of sd, overwriting the oldest retained span once the
// ring has wrapped.
func (r *ring) put(sd SpanData) {
	i := (r.cursor.Add(1) - 1) % uint64(len(r.slots))
	r.slots[i].Store(&sd)
}

// snapshot appends every retained span to dst, oldest first (best effort
// under concurrent writes).
func (r *ring) snapshot(dst []SpanData) []SpanData {
	n := r.cursor.Load()
	cap64 := uint64(len(r.slots))
	start := uint64(0)
	if n > cap64 {
		start = n - cap64
	}
	for i := start; i < n; i++ {
		if p := r.slots[i%cap64].Load(); p != nil {
			dst = append(dst, *p)
		}
	}
	return dst
}

// buffer is the tracer's retention policy: three classes of spans survive
// unbounded traffic in bounded memory.
//
//   - head: the first spans since process start, pinned forever — the
//     provisioning story (stores, first queries) stays inspectable after
//     days of churn;
//   - tail: a ring of the most recent spans — "what just happened";
//   - errors: a separate ring fed only by failed spans, so a burst of
//     healthy traffic cannot evict the evidence of a fault.
type buffer struct {
	tail *ring
	errs *ring

	headKeep int
	headN    atomic.Int64
	headMu   sync.Mutex
	head     []SpanData
}

func newBuffer(capacity, headKeep, errorKeep int) *buffer {
	return &buffer{
		tail:     newRing(capacity),
		errs:     newRing(errorKeep),
		headKeep: headKeep,
		head:     make([]SpanData, 0, headKeep),
	}
}

// put retains one finished span under every class that wants it.
func (b *buffer) put(sd SpanData) {
	// Head: an atomic pre-check keeps the steady state lock-free; only the
	// first headKeep spans ever take the mutex.
	if b.headN.Load() < int64(b.headKeep) {
		b.headMu.Lock()
		if len(b.head) < b.headKeep {
			b.head = append(b.head, sd)
			b.headN.Store(int64(len(b.head)))
		}
		b.headMu.Unlock()
	}
	if sd.Error != "" {
		b.errs.put(sd)
	}
	b.tail.put(sd)
}

// snapshot returns every retained span deduplicated by span ID (a span can
// sit in several classes at once), oldest classes first.
func (b *buffer) snapshot() []SpanData {
	var all []SpanData
	b.headMu.Lock()
	all = append(all, b.head...)
	b.headMu.Unlock()
	all = b.errs.snapshot(all)
	all = b.tail.snapshot(all)
	seen := make(map[string]bool, len(all))
	out := all[:0]
	for _, sd := range all {
		key := sd.TraceID + "/" + sd.SpanID
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, sd)
	}
	return out
}
