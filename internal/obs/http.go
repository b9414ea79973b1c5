package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// buildInfo is the binary identity reported on /healthz and as the
// scec_build_info gauge, resolved once from the embedded module metadata.
type buildInfo struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module"`
	Version   string `json:"version"`
}

var (
	buildOnce sync.Once
	buildID   buildInfo
)

// readBuildInfo resolves the binary's identity. Binaries built outside
// module mode (rare: tests of vendored copies) fall back to "unknown".
func readBuildInfo() buildInfo {
	buildOnce.Do(func() {
		buildID = buildInfo{GoVersion: runtime.Version(), Module: "unknown", Version: "unknown"}
		if bi, ok := debug.ReadBuildInfo(); ok {
			if bi.Main.Path != "" {
				buildID.Module = bi.Main.Path
			}
			if bi.Main.Version != "" {
				buildID.Version = bi.Main.Version
			}
		}
	})
	return buildID
}

// healthBody is the /healthz JSON response.
type healthBody struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	buildInfo
}

// Route mounts one extra debug handler on the telemetry mux — the hook the
// tracing and runtime-introspection endpoints (/debug/traces, /debug/fleet,
// /debug/engine) use to join /metrics and /debug/pprof under one server.
type Route struct {
	// Pattern is a net/http ServeMux pattern ("/debug/traces",
	// "/debug/traces/{id}", ...).
	Pattern string
	// Handler serves it.
	Handler http.Handler
	// Desc is the one-line description the /debug index lists for the route.
	Desc string
	// Capture is the URL CaptureDebug fetches for this route (usually the
	// pattern itself); empty means the route is not captured — it blocks,
	// takes a parameter, or repeats another route's content.
	Capture string
}

// JSONHeaders stamps the response headers every JSON debug/metrics endpoint
// in the repo uses: the JSON content type plus no-store caching, so a proxy
// or browser never serves a stale introspection snapshot.
func JSONHeaders(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Cache-Control", "no-store")
}

// builtinRoutes describe the endpoints Handler always registers, for the
// /debug index. Extra routes are audited against these patterns (and each
// other) so a typo'd pattern cannot silently shadow /debug/pprof/ or
// double-register. The goroutine and heap entries are served by the
// /debug/pprof/ prefix handler; they are listed so a capture takes them.
var builtinRoutes = []Route{
	{Pattern: "/debug", Desc: "this index: every mounted debug/metrics route"},
	{Pattern: "/metrics", Desc: "Prometheus text exposition"},
	{Pattern: "/metrics.json", Desc: "JSON metrics snapshot with quantiles and exemplars", Capture: "/metrics.json"},
	{Pattern: "/healthz", Desc: "liveness probe: status, uptime, build identity", Capture: "/healthz"},
	{Pattern: "/debug/vars", Desc: "expvar: Go runtime memstats and cmdline", Capture: "/debug/vars"},
	{Pattern: "/debug/pprof/", Desc: "pprof profile index"},
	{Pattern: "/debug/pprof/goroutine", Desc: "pprof: goroutine stacks (?debug=2 for the full dump)", Capture: "/debug/pprof/goroutine?debug=2"},
	{Pattern: "/debug/pprof/heap", Desc: "pprof: heap profile", Capture: "/debug/pprof/heap"},
	{Pattern: "/debug/pprof/cmdline", Desc: "pprof: process command line"},
	{Pattern: "/debug/pprof/profile", Desc: "pprof: CPU profile (?seconds=N)"},
	{Pattern: "/debug/pprof/symbol", Desc: "pprof: symbol lookup"},
	{Pattern: "/debug/pprof/trace", Desc: "pprof: execution trace (?seconds=N)"},
}

// RouteInfo is one /debug index entry. Capture is the URL a capture fetches
// for the route, absent when the route is not captured.
type RouteInfo struct {
	Pattern string `json:"pattern"`
	Desc    string `json:"desc,omitempty"`
	Capture string `json:"capture,omitempty"`
}

// debugIndex serves the route catalogue as JSON, sorted by pattern.
func debugIndex(routes []RouteInfo) http.Handler {
	sorted := make([]RouteInfo, len(routes))
	copy(sorted, routes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Pattern < sorted[j].Pattern })
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		JSONHeaders(w)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Routes []RouteInfo `json:"routes"`
		}{Routes: sorted})
	})
}

// Handler returns the runtime-introspection handler bundle:
//
//	/metrics        Prometheus text exposition
//	/metrics.json   JSON snapshot
//	/healthz        liveness probe: JSON status, uptime, and build identity
//	/debug          JSON index of every mounted debug/metrics route
//	/debug/vars     expvar (Go runtime memstats and cmdline)
//	/debug/pprof/*  CPU/heap/goroutine/trace profiling
//
// Handler also registers the scec_build_info constant gauge (value 1,
// labels go_version/module/version) so scrapes carry the binary's identity.
//
// Extra routes are mounted on the same mux. A route that collides with a
// built-in pattern (or repeats another extra) panics with the offending
// pattern — collisions are programmer errors and must not silently shadow
// the profiler.
func (r *Registry) Handler(extra ...Route) http.Handler {
	bi := readBuildInfo()
	r.Gauge(MetricBuildInfo,
		"Constant 1; the binary's identity is carried in the go_version, module, and version labels.",
		L("go_version", bi.GoVersion), L("module", bi.Module), L("version", bi.Version)).Set(1)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		JSONHeaders(w)
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		JSONHeaders(w)
		_ = json.NewEncoder(w).Encode(healthBody{
			Status:        "ok",
			UptimeSeconds: r.Uptime().Seconds(),
			buildInfo:     bi,
		})
	})
	mux.Handle("/debug/vars", http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// expvar.Handler sets the content type but not the cache policy;
		// every JSON debug route serves with the same headers.
		w.Header().Set("Cache-Control", "no-store")
		expvar.Handler().ServeHTTP(w, req)
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	index := make([]RouteInfo, 0, len(builtinRoutes)+len(extra))
	seen := make(map[string]bool, len(builtinRoutes)+len(extra))
	for _, rt := range builtinRoutes {
		seen[rt.Pattern] = true
		index = append(index, RouteInfo{Pattern: rt.Pattern, Desc: rt.Desc, Capture: rt.Capture})
	}
	for _, rt := range extra {
		if rt.Handler == nil || rt.Pattern == "" {
			panic(fmt.Sprintf("obs: debug route %q has no pattern or handler", rt.Pattern))
		}
		if seen[rt.Pattern] {
			panic(fmt.Sprintf("obs: debug route %q collides with an already registered pattern", rt.Pattern))
		}
		seen[rt.Pattern] = true
		index = append(index, RouteInfo{Pattern: rt.Pattern, Desc: rt.Desc, Capture: rt.Capture})
		mux.Handle(rt.Pattern, rt.Handler)
	}
	mux.Handle("/debug", debugIndex(index))
	return mux
}

// Server is a running telemetry endpoint started by StartServer.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// StartServer serves h — normally a Registry's Handler — on addr (use
// "127.0.0.1:0" for an ephemeral port; Addr reports the bound address) in a
// background goroutine.
func StartServer(h http.Handler, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: h}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// shutdownGrace bounds how long a context-driven shutdown waits for
// in-flight scrapes before hard-closing.
const shutdownGrace = 2 * time.Second

// StartServerContext is StartServer bound to a context: when ctx is
// cancelled the server shuts down gracefully (in-flight requests get
// shutdownGrace to finish, then the listener hard-closes). Close remains
// safe to call as well.
func StartServerContext(ctx context.Context, h http.Handler, addr string) (*Server, error) {
	s, err := StartServer(h, addr)
	if err != nil {
		return nil, err
	}
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		_ = s.Shutdown(sctx)
	}()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops the server gracefully, waiting for in-flight requests
// until ctx expires (then closing hard).
func (s *Server) Shutdown(ctx context.Context) error {
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}

// Close stops the server immediately.
func (s *Server) Close() error { return s.srv.Close() }
