// Package flight is the repository's flight recorder: an always-on,
// lock-light ring-buffered event journal that the engine, fleet, transport,
// and adaptive control plane publish structural events into (breaker
// transitions, hedge wins, retries, replan decisions, rehost/reshape
// epochs, protocol negotiations, shed and timeout events), plus a watchdog
// that evaluates declarative trigger rules against the journal and the
// metrics registry and captures self-contained incident bundles when one
// fires.
//
// The journal follows the internal/obs design rules: standard library only,
// publishing is wait-free with respect to readers and other writers except
// for one uncontended per-slot mutex (writers claim distinct slots via an
// atomic cursor, so two writers only share a slot lock after a full
// wraparound race), and everything is nil-safe so instrumentation sites
// never branch on "is the recorder enabled".
package flight

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
)

// Kind enumerates the structural event types the stack publishes. The set is
// fixed and small so per-kind counters stay bounded and trigger rules can
// name kinds in their grammar (see ParseRule).
type Kind uint8

const (
	// KindBreakerOpen: a device circuit breaker tripped open after
	// consecutive probe/attempt failures. Actor is the device address; A is
	// the failure streak.
	KindBreakerOpen Kind = iota
	// KindBreakerHalfOpen: an open breaker's cooldown elapsed and one trial
	// request is being admitted. Actor is the device address.
	KindBreakerHalfOpen
	// KindBreakerClose: a breaker reset to closed after a success. Actor is
	// the device address.
	KindBreakerClose
	// KindHedgeWin: a speculative (hedged) replica attempt beat the primary.
	// Actor is the winning device address; A is the block index.
	KindHedgeWin
	// KindRetry: a fresh backoff round was launched for a block after every
	// replica of the previous round failed. Actor is empty; A is the block
	// index, B the round number.
	KindRetry
	// KindFailover: an in-race attempt failed and the race moved on to the
	// next replica. Actor is the failed device address; A is the block index.
	KindFailover
	// KindRepairOK / KindRepairFailed: a self-repair push of a block to a
	// warm standby completed / failed. Actor is the standby address; A is the
	// block index.
	KindRepairOK
	KindRepairFailed
	// KindRehostOK / KindRehostFailed: a live single-block migration
	// (fleet.Session.Rehost) completed / failed. Actor is the destination
	// address; A is the block index.
	KindRehostOK
	KindRehostFailed
	// KindReshapeOK / KindReshapeFailed: a full drain-and-swap re-encode at a
	// new r completed / failed. A is the new plan's r.
	KindReshapeOK
	KindReshapeFailed
	// KindReplanAdopt / KindReplanHold: the adaptive controller adopted a new
	// plan / held the incumbent. Detail carries the planner's reason.
	KindReplanAdopt
	KindReplanHold
	// KindNegotiateV4 / KindNegotiateError: the hello handshake on a freshly
	// dialed transport connection succeeded or failed. Actor is the peer
	// address.
	KindNegotiateV4
	KindNegotiateError
	// KindShed: the load generator's MaxInFlight backstop refused a launch.
	// A is the in-flight count at refusal.
	KindShed
	// KindTimeout: a per-attempt deadline expired. Actor is the device
	// address; A is the block index.
	KindTimeout
	// KindQueryError: a query failed after exhausting every replica, retry,
	// and hedge. Detail carries the error.
	KindQueryError
	// KindSLOBreach: a loadgen scenario step violated a declared SLO. Detail
	// carries the violation text.
	KindSLOBreach
	// KindIncident: the watchdog captured an incident bundle. Actor is the
	// rule name, Detail the bundle directory.
	KindIncident
	// KindStraggler: a block's ranking demoted its leader — the replica a
	// round asks first changed to a peer its straggler record prices faster.
	// Actor is the demoted device, A the block, Detail the new leader.
	KindStraggler

	numKinds int = iota
)

var kindNames = [numKinds]string{
	KindBreakerOpen:     "breaker-open",
	KindBreakerHalfOpen: "breaker-halfopen",
	KindBreakerClose:    "breaker-close",
	KindHedgeWin:        "hedge-win",
	KindRetry:           "retry",
	KindFailover:        "failover",
	KindRepairOK:        "repair-ok",
	KindRepairFailed:    "repair-failed",
	KindRehostOK:        "rehost-ok",
	KindRehostFailed:    "rehost-failed",
	KindReshapeOK:       "reshape-ok",
	KindReshapeFailed:   "reshape-failed",
	KindReplanAdopt:     "replan-adopt",
	KindReplanHold:      "replan-hold",
	KindNegotiateV4:     "negotiate-v4",
	KindNegotiateError:  "negotiate-error",
	KindShed:            "shed",
	KindTimeout:         "timeout",
	KindQueryError:      "query-error",
	KindSLOBreach:       "slo-breach",
	KindIncident:        "incident",
	KindStraggler:       "straggler",
}

// String returns the kind's stable wire name (the form trigger rules and
// the JSON export use).
func (k Kind) String() string {
	if int(k) < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// ParseKind resolves a wire name back to its Kind.
func ParseKind(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// MarshalJSON renders the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses the wire name written by MarshalJSON.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, ok := ParseKind(s)
	if !ok {
		return fmt.Errorf("flight: unknown event kind %q", s)
	}
	*k = v
	return nil
}

// Event is one journal entry. The struct is fixed-size apart from the two
// strings, which at every publish site are either addresses interned for
// the life of the fleet or small constants — publishing allocates nothing.
type Event struct {
	// Seq is the 1-based global sequence number; gaps never occur, so
	// Seq - capacity tells a reader exactly how much history wrapped away.
	Seq uint64 `json:"seq"`
	// At is the event timestamp in nanoseconds on the journal's clock
	// (Unix nanos on the wall clock; offset-from-zero nanos on a virtual
	// clock whose base is the epoch).
	At int64 `json:"at_ns"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Actor is the subject device/peer address, if any.
	Actor string `json:"actor,omitempty"`
	// Detail is free-form context (an error, a planner reason).
	Detail string `json:"detail,omitempty"`
	// A and B are kind-specific small integers (block index, streak, round).
	A int64 `json:"a,omitempty"`
	B int64 `json:"b,omitempty"`
}

// slot is one ring cell. The mutex is per-slot, so it is uncontended unless
// two writers race a full wraparound apart or a reader copies the cell at
// the instant it is being overwritten.
type slot struct {
	mu sync.Mutex
	ev Event
}

// DefaultCapacity is the ring size of the process-wide journal: large
// enough to hold minutes of structural events (these are state changes,
// not per-request records) in ~1 MiB.
const DefaultCapacity = 8192

// Options configures a Journal.
type Options struct {
	// Capacity is the ring size; DefaultCapacity when zero or negative.
	Capacity int
	// Clock stamps events; trace.WallClock() when nil. Only tests set it,
	// to a *trace.VirtualClock they advance by hand; a simulated fleet
	// session (fleet.Simulate) publishes to no journal.
	Clock trace.Clock
	// Metrics receives the per-kind scec_flight_events_total counters; nil
	// disables them (the Default journal uses obs.Default()).
	Metrics *obs.Registry
}

// Journal is the ring-buffered event recorder. A nil *Journal is safe: all
// methods no-op, so instrumentation sites publish unconditionally.
type Journal struct {
	clock  trace.Clock
	slots  []slot
	cursor atomic.Uint64 // next Seq - 1
	reg    *obs.Registry
	counts [numKinds]atomic.Pointer[obs.Counter] // lazily registered
}

// New returns a journal with the given options.
func New(o Options) *Journal {
	if o.Capacity <= 0 {
		o.Capacity = DefaultCapacity
	}
	if o.Clock == nil {
		o.Clock = trace.WallClock()
	}
	return &Journal{clock: o.Clock, slots: make([]slot, o.Capacity), reg: o.Metrics}
}

var std = New(Options{Metrics: obs.Default()})

// Default returns the process-wide journal. Layers without explicit journal
// plumbing (transport negotiation, loadgen shed accounting) publish here,
// mirroring obs.Default(); the fleet and adapt configs default to it too,
// so one /debug/journal sees the whole stack.
func Default() *Journal { return std }

// Publish records one event. Safe on a nil journal, safe for concurrent
// writers, and never blocks on readers beyond one per-slot mutex handoff.
func (j *Journal) Publish(kind Kind, actor string, a, b int64) {
	j.publish(kind, actor, "", a, b)
}

// PublishDetail is Publish with a free-form detail string.
func (j *Journal) PublishDetail(kind Kind, actor, detail string, a, b int64) {
	j.publish(kind, actor, detail, a, b)
}

func (j *Journal) publish(kind Kind, actor, detail string, a, b int64) {
	if j == nil {
		return
	}
	seq := j.cursor.Add(1)
	at := j.clock.Now().UnixNano()
	s := &j.slots[(seq-1)%uint64(len(j.slots))]
	s.mu.Lock()
	s.ev = Event{Seq: seq, At: at, Kind: kind, Actor: actor, Detail: detail, A: a, B: b}
	s.mu.Unlock()
	if c := j.counter(kind); c != nil {
		c.Inc()
	}
}

// counter lazily registers the per-kind published-events counter so an idle
// journal adds no series to the registry.
func (j *Journal) counter(kind Kind) *obs.Counter {
	if j.reg == nil || int(kind) >= numKinds {
		return nil
	}
	if c := j.counts[kind].Load(); c != nil {
		return c
	}
	c := j.reg.Counter(obs.MetricFlightEventsTotal,
		"Flight-recorder events published to the journal, by event kind.",
		obs.L("kind", kind.String()))
	j.counts[kind].Store(c)
	return c
}

// Seq returns the sequence number of the most recently claimed slot (the
// total number of events ever published).
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	return j.cursor.Load()
}

// Capacity returns the ring size.
func (j *Journal) Capacity() int {
	if j == nil {
		return 0
	}
	return len(j.slots)
}

// Snapshot copies the retained events in sequence order (oldest first).
func (j *Journal) Snapshot() []Event {
	if j == nil {
		return nil
	}
	out := make([]Event, 0, min(j.cursor.Load(), uint64(len(j.slots))))
	j.scan(func(ev Event) { out = append(out, ev) })
	return out
}

// CountSince counts retained events of the given kind stamped at or after
// the cutoff (nanoseconds on the journal's clock) — the primitive the
// watchdog's journal rules evaluate. It counts in place, allocating
// nothing.
func (j *Journal) CountSince(kind Kind, cutoffNs int64) int {
	if j == nil {
		return 0
	}
	n := 0
	j.scan(func(ev Event) {
		if ev.Kind == kind && ev.At >= cutoffNs {
			n++
		}
	})
	return n
}

// scan visits the retained events in sequence order, each copied out of its
// slot under the slot lock. Writers racing the scan may overwrite the
// oldest cells mid-walk; such torn positions are detected by their sequence
// numbers and skipped, so the visited events are always a gap-tolerant,
// strictly increasing sequence.
func (j *Journal) scan(visit func(Event)) {
	head := j.cursor.Load()
	n := uint64(len(j.slots))
	lo := uint64(1)
	if head > n {
		lo = head - n + 1
	}
	var last uint64
	for seq := lo; seq <= head; seq++ {
		s := &j.slots[(seq-1)%n]
		s.mu.Lock()
		ev := s.ev
		s.mu.Unlock()
		// A slot claimed but not yet written shows a stale or zero event;
		// keep only cells whose stamped Seq matches the position we expect
		// or a newer wrap of it (a concurrent writer lapped the scan).
		if ev.Seq == 0 || ev.Seq <= last {
			continue
		}
		if ev.Seq != seq && (ev.Seq-seq)%n != 0 {
			continue
		}
		last = ev.Seq
		visit(ev)
	}
}

// Now returns the current time on the journal's clock (used by the watchdog
// so rule windows stay meaningful under a virtual clock).
func (j *Journal) Now() int64 {
	if j == nil {
		return 0
	}
	return j.clock.Now().UnixNano()
}
