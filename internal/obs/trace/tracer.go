package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Options tunes a Tracer; the zero value selects every default.
type Options struct {
	// Service names the process role stamped on every span this tracer
	// emits ("user", "device", "sim", ...). Empty means "proc".
	Service string
	// Clock stamps span start/end times; nil means the wall clock.
	Clock Clock
}

// Buffer sizes, fixed for every tracer. The three retention classes
// together bound tracer memory at a few thousand spans regardless of
// traffic.
const (
	// DefaultCapacity is the recent-span ring size.
	DefaultCapacity = 4096
	// DefaultHeadKeep is how many of the first spans since start are pinned
	// regardless of ring churn.
	DefaultHeadKeep = 256
	// DefaultErrorKeep is the error-biased reserve ring size.
	DefaultErrorKeep = 512
)

// Tracer creates spans and retains the finished ones. All methods are safe
// for concurrent use, and all methods on a nil *Tracer are no-ops, so
// instrumented code never guards call sites.
type Tracer struct {
	service string
	clock   Clock
	buf     *buffer

	started atomic.Int64
	ended   atomic.Int64
	adopted atomic.Int64
}

// New builds a tracer.
func New(o Options) *Tracer {
	if o.Service == "" {
		o.Service = "proc"
	}
	if o.Clock == nil {
		o.Clock = WallClock()
	}
	return &Tracer{
		service: o.Service,
		clock:   o.Clock,
		buf:     newBuffer(DefaultCapacity, DefaultHeadKeep, DefaultErrorKeep),
	}
}

// Service returns the tracer's role name ("" for a nil tracer).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// StartRoot opens a new trace and returns its root span along with a
// context carrying it.
func (t *Tracer) StartRoot(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	return t.start(ctx, SpanContext{TraceID: newTraceID()}, name, attrs)
}

// StartSpan opens a span. If ctx carries an active span, the new span is
// its child in the same trace; otherwise a new trace begins. The returned
// context carries the new span.
func (t *Tracer) StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if p := SpanFromContext(ctx); p != nil {
		return t.start(ctx, p.Context(), name, attrs)
	}
	return t.start(ctx, SpanContext{TraceID: newTraceID()}, name, attrs)
}

// StartRemote opens a span parented under a propagated remote context —
// the device-server side of the transport uses it with the frame's
// traceparent.
func (t *Tracer) StartRemote(ctx context.Context, parent SpanContext, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil || !parent.Valid() {
		return ctx, nil
	}
	return t.start(ctx, parent, name, attrs)
}

// start copies attrs rather than retaining the caller's slice, so the
// Start* variadics stay on the caller's stack and cost nothing when the
// tracer is nil.
func (t *Tracer) start(ctx context.Context, parent SpanContext, name string, attrs []Attr) (context.Context, *Span) {
	s := &Span{
		tracer: t,
		ctx: SpanContext{
			TraceID: parent.TraceID,
			SpanID:  newSpanID(),
		},
		parent: parent.SpanID,
		name:   name,
		start:  t.clock.Now(),
		attrs:  append([]Attr(nil), attrs...),
	}
	t.started.Add(1)
	return ContextWithSpan(ctx, s), s
}

// Record adopts a fully formed finished span into the tracer's buffer —
// spans re-emitted by a device server over the transport, or a simulated
// fleet session's spans on its virtual clock.
func (t *Tracer) Record(sd SpanData) {
	if t == nil {
		return
	}
	if sd.TraceID == "" || sd.SpanID == "" {
		return
	}
	t.adopted.Add(1)
	t.buf.put(sd)
}

// Snapshot returns the retained spans — pinned head, error reserve, and
// recent ring — deduplicated by span ID, in no particular order.
func (t *Tracer) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	return t.buf.snapshot()
}

// Stats reports the tracer's lifetime span accounting: locally started,
// locally ended, and adopted (remote or fabricated) spans, plus how many
// are currently retained.
func (t *Tracer) Stats() (started, ended, adopted, retained int64) {
	if t == nil {
		return 0, 0, 0, 0
	}
	return t.started.Load(), t.ended.Load(), t.adopted.Load(), int64(len(t.buf.snapshot()))
}

// Span is one in-flight operation. All methods are safe on a nil receiver
// and after End (later calls no-op), so instrumentation never branches.
type Span struct {
	tracer *Tracer
	ctx    SpanContext
	parent SpanID
	name   string
	start  time.Time

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	errMsg string
	done   bool
	data   SpanData // filled at End for Data()
}

// Context returns the span's propagation context (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// Tracer returns the tracer that created the span (nil for nil spans).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// Traceparent renders the span's propagation header ("" for nil spans).
func (s *Span) Traceparent() string { return s.Context().Traceparent() }

// SetAttr attaches an attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// AddEvent records a point-in-time event stamped from the tracer's clock.
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	now := s.tracer.clock.Now()
	s.mu.Lock()
	if !s.done {
		s.events = append(s.events, Event{Name: name, Time: now, Attrs: append([]Attr(nil), attrs...)})
	}
	s.mu.Unlock()
}

// SetError marks the span failed. A nil error is ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.errMsg = err.Error()
	}
	s.mu.Unlock()
}

// End finishes the span and hands it to the tracer's buffer. Only the
// first call records; later calls no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.tracer.clock.Now()
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	sd := SpanData{
		TraceID: s.ctx.TraceID.String(),
		SpanID:  s.ctx.SpanID.String(),
		Name:    s.name,
		Service: s.tracer.service,
		Start:   s.start,
		End:     end,
		Attrs:   s.attrs,
		Events:  s.events,
		Error:   s.errMsg,
	}
	if !s.parent.IsZero() {
		sd.ParentID = s.parent.String()
	}
	s.data = sd
	s.mu.Unlock()
	s.tracer.ended.Add(1)
	s.tracer.buf.put(sd)
}

// Data returns the finished span's immutable record; ok is false before
// End (and always for nil spans).
func (s *Span) Data() (SpanData, bool) {
	if s == nil {
		return SpanData{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.data, s.done
}
