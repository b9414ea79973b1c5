package scec

import (
	"io"
	"net/http"

	"github.com/scec/scec/internal/obs"
)

// Runtime telemetry. Every layer of the stack — Deploy/MulVec stage spans,
// the TCP transport's RPC counters and latency histograms, and the
// simulator's virtual-clock stage timings — records into one process-wide
// registry. These accessors surface it without exposing the internal
// package; the README's Observability section documents every metric name.

// MetricsHandler returns the runtime-introspection handler bundle for the
// process-wide telemetry registry: /metrics (Prometheus text exposition),
// /metrics.json (JSON snapshot), /healthz, /debug/vars (expvar), and
// /debug/pprof/*. Mount it on any mux or serve it directly.
func MetricsHandler() http.Handler { return obs.Default().Handler() }

// WriteMetrics renders the process-wide registry in the Prometheus text
// exposition format.
func WriteMetrics(w io.Writer) error { return obs.Default().WritePrometheus(w) }

// WriteMetricsJSON renders a JSON snapshot of the process-wide registry.
func WriteMetricsJSON(w io.Writer) error { return obs.Default().WriteJSON(w) }

// WriteStageTable renders a human-readable table of the pipeline stage
// timings (allocate, encode, store, compute, gather, decode) recorded so
// far; it prints nothing when no stage has run.
func WriteStageTable(w io.Writer) error { return obs.WriteStageTable(w, nil) }

// Tails is the interpolated p50/p95/p99 summary of one latency histogram,
// in seconds.
type Tails = obs.Tails

// StageTails returns the tail-latency summary of every pipeline stage that
// has recorded at least one observation in the process-wide registry, keyed
// by stage name (allocate, encode, store, compute, gather, decode).
func StageTails() map[string]Tails { return obs.StageTails(nil) }

// ServeMetrics starts serving MetricsHandler on addr ("127.0.0.1:0" picks
// an ephemeral port) in a background goroutine and returns the bound
// address plus a closer that stops the server.
func ServeMetrics(addr string) (string, io.Closer, error) {
	srv, err := obs.StartServer(MetricsHandler(), addr)
	if err != nil {
		return "", nil, err
	}
	return srv.Addr(), srv, nil
}
