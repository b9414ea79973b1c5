package scec

import (
	"github.com/scec/scec/internal/obs/trace"
)

// Tracer records causally linked spans across the whole serving stack —
// engine query layer, coalescer, fleet racing/hedging, transport round
// trips, and device-side compute — into a bounded in-process buffer with
// JSON export and /debug/traces introspection. A nil *Tracer is a valid
// no-op everywhere it is accepted. See internal/obs/trace.
type Tracer = trace.Tracer

// TracerOptions tunes a Tracer (service name, clock). The retention buffer
// sizes are fixed. The zero value selects every default.
type TracerOptions = trace.Options

// NewTracer builds a tracer. Wire it into a deployment with WithTracing (or
// a fleet session's FleetConfig.Tracer; a fleet bind shares either with the
// other layer) and into device servers via transport Options.Tracer; sharing
// one tracer per process is the normal setup.
func NewTracer(o TracerOptions) *Tracer { return trace.New(o) }

// WithTracing routes the deployment engine's query/coalesce/round/decode
// spans (and, through context propagation, every substrate span below them)
// to t. Serve shares it with the fleet session when FleetConfig.Tracer is
// unset — and vice versa — so
// one of the two is enough for the race/hedge spans. The session's
// per-device straggler records (Session.Stragglers) need no tracer.
func WithTracing[E comparable](t *Tracer) DeployOption[E] {
	return func(c *deployConfig[E]) { c.opts.Tracer = t }
}
