// Package trace is the repository's zero-dependency distributed-tracing
// substrate: causally linked spans with W3C-style trace/span identifiers,
// carried across the transport's RPC frames so one user query yields a
// single trace spanning engine → coalescer → fleet racing/hedging →
// transport → device-side compute.
//
// The design follows the rest of internal/obs: standard library only, hot
// paths touch atomics and fixed-size buffers, and everything degrades to a
// no-op when tracing is off — a nil *Tracer (and the nil *Span it hands
// out) is safe to call, so instrumentation sites never branch on "is
// tracing enabled".
//
// Finished spans land in a lock-cheap in-process buffer with sampled
// retention (the first spans since start, the most recent spans, and an
// error-biased reserve — see buffer.go), from which the exporter renders
// OTLP-shaped JSON (export.go) and the straggler analytics derive
// per-device latency digests and hedge-win attribution (straggler.go).
package trace

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"time"
)

// TraceID is a 16-byte W3C trace identifier, rendered as 32 hex digits.
type TraceID [16]byte

// SpanID is an 8-byte W3C span identifier, rendered as 16 hex digits.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// idSource draws random identifiers. math/rand/v2's top-level generator is
// goroutine-safe and seeded per process; trace IDs need uniqueness, not
// unpredictability.
func newTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			t[i] = byte(a >> (8 * i))
			t[8+i] = byte(b >> (8 * i))
		}
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		a := rand.Uint64()
		for i := 0; i < 8; i++ {
			s[i] = byte(a >> (8 * i))
		}
	}
	return s
}

// SpanContext is the propagated slice of a span: enough to parent remote
// children and to stitch re-emitted spans into the same trace.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both identifiers are set.
func (c SpanContext) Valid() bool { return !c.TraceID.IsZero() && !c.SpanID.IsZero() }

// Traceparent renders the context in the W3C trace-context header shape,
// "00-<32 hex trace id>-<16 hex span id>-01" — the wire form the transport
// carries in its request frames.
func (c SpanContext) Traceparent() string {
	if !c.Valid() {
		return ""
	}
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = hex.AppendEncode(b, c.TraceID[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, c.SpanID[:])
	b = append(b, "-01"...)
	return string(b)
}

// ParseTraceparent parses the W3C-style header rendered by Traceparent.
// Unknown versions are accepted as long as the field widths match, per the
// spec's forward-compatibility rule; ok is false for anything malformed.
func ParseTraceparent(s string) (SpanContext, bool) {
	var c SpanContext
	// version(2) - traceid(32) - spanid(16) - flags(2)
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return c, false
	}
	if _, err := hex.Decode(c.TraceID[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(c.SpanID[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, false
	}
	if !c.Valid() {
		return SpanContext{}, false
	}
	return c, true
}

// Attr is one key/value annotation on a span or event. Values are strings;
// callers format numbers themselves (the hot paths attach few attributes
// and the export is textual anyway).
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A is shorthand for constructing an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Event is a point-in-time annotation inside a span — a retry, a hedge
// launch, a breaker rejection.
type Event struct {
	Name  string    `json:"name"`
	Time  time.Time `json:"time"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// SpanData is an immutable finished span. It is the unit of retention,
// export, and cross-process re-emission (the transport gob-encodes it into
// response frames), so every field is exported and encoding-friendly.
type SpanData struct {
	TraceID  string `json:"traceId"`
	SpanID   string `json:"spanId"`
	ParentID string `json:"parentSpanId,omitempty"`
	Name     string `json:"name"`
	// Service names the process role that emitted the span (for example
	// "user" or "device"), so a stitched cross-process trace still shows
	// which side each span ran on.
	Service string    `json:"service,omitempty"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Attrs   []Attr    `json:"attrs,omitempty"`
	Events  []Event   `json:"events,omitempty"`
	// Error is the span's failure message; empty for successful spans.
	Error string `json:"error,omitempty"`
}

// Duration is the span's wall (or virtual) extent.
func (s SpanData) Duration() time.Duration { return s.End.Sub(s.Start) }

// Attr returns the value of the named attribute, or "".
func (s SpanData) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Clock abstracts time for span stamps: the wall clock in real runs, a
// settable virtual clock when the simulator emits traces on its
// event-driven timeline.
type Clock interface {
	Now() time.Time
}

// wallClock is the default Clock.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// WallClock returns the real-time clock.
func WallClock() Clock { return wallClock{} }

// VirtualClock is a manually advanced clock, a simulated fleet session's:
// spans stamped from it carry the simulation's virtual timeline instead of
// wall time.
type VirtualClock struct {
	mu   sync.Mutex
	base time.Time
	off  time.Duration
}

// NewVirtualClock returns a virtual clock standing at base.
func NewVirtualClock(base time.Time) *VirtualClock { return &VirtualClock{base: base} }

// Now returns the current virtual instant.
func (v *VirtualClock) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.base.Add(v.off)
}

// Set moves the clock to the given offset from base.
func (v *VirtualClock) Set(off time.Duration) {
	v.mu.Lock()
	v.off = off
	v.mu.Unlock()
}

// ctxKey keys the active span in a context.Context.
type ctxKey struct{}

// ContextWithSpan returns ctx with s as the active span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the active span, or nil. A nil result is safe to
// use: every *Span method no-ops on nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
