package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

func TestHandlerBundle(t *testing.T) {
	r := New()
	r.Counter("bundle_total", "h").Inc()

	h := r.Handler()
	if code, body := get(t, h, "/metrics"); code != 200 || !strings.Contains(body, "bundle_total 1") {
		t.Fatalf("/metrics: code %d body %q", code, body)
	}
	if code, body := get(t, h, "/metrics.json"); code != 200 || !strings.Contains(body, `"uptime_seconds"`) {
		t.Fatalf("/metrics.json: code %d body %q", code, body)
	}
	if code, body := get(t, h, "/healthz"); code != 200 ||
		!strings.Contains(body, `"status":"ok"`) ||
		!strings.Contains(body, `"uptime_seconds"`) ||
		!strings.Contains(body, `"go_version"`) {
		t.Fatalf("/healthz: code %d body %q", code, body)
	}
	if code, body := get(t, h, "/metrics"); code != 200 || !strings.Contains(body, "scec_build_info{") {
		t.Fatalf("/metrics missing build info: code %d body %q", code, body)
	}
	if code, body := get(t, h, "/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars: code %d body %q", code, body)
	}
	if code, body := get(t, h, "/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: code %d body %q", code, body)
	}
}

func TestStartServer(t *testing.T) {
	r := New()
	r.Gauge("live_gauge", "h").Set(7)
	srv, err := StartServer(r.Handler(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "live_gauge 7") {
		t.Fatalf("served metrics missing gauge:\n%s", body)
	}
}
