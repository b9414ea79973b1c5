package scec

import (
	"net/http"

	"github.com/scec/scec/internal/obs"
)

// MetricsHandler returns the runtime-introspection handler bundle for the
// process-wide telemetry registry, into which every layer of the stack —
// Deploy/MulVec stage spans, the TCP transport's RPC counters and latency
// histograms, and the simulator's virtual-clock stage timings — records:
// /metrics (Prometheus text exposition), /metrics.json (JSON snapshot,
// carrying each stage's p50/p95/p99), /healthz, /debug/vars (expvar), and
// /debug/pprof/*. Mount it on any mux or serve it directly; the README's
// Observability section documents every metric name.
func MetricsHandler() http.Handler { return obs.Default().Handler() }
