package flight

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/trace"
)

func TestParseRule(t *testing.T) {
	good := []struct {
		in   string
		name string
	}{
		{"journal:breaker-open>=3/10s", "journal:breaker-open>=3/10s"},
		{"journal:replan-adopt>=1/60s", "journal:replan-adopt>=1/1m0s"},
		{"counter:scec_flight_events_total>=5/30s", "counter:scec_flight_events_total>=5/30s"},
		{" journal:shed>=2/1s ", "journal:shed>=2/1s"},
	}
	for _, tc := range good {
		r, err := ParseRule(tc.in)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", tc.in, err)
			continue
		}
		if r.Name() != tc.name {
			t.Errorf("ParseRule(%q).Name() = %q, want %q", tc.in, r.Name(), tc.name)
		}
	}
	bad := []string{
		"",
		"journal",
		"journal:breaker-open",
		"journal:breaker-open>=3",
		"journal:no-such-kind>=3/10s",
		"journal:breaker-open>=zero/10s",
		"journal:breaker-open>=0/10s",
		"journal:breaker-open>=3/never",
		"journal:breaker-open>=3/-5s",
		"counter:x>=-1/10s",
		"gauge:x>=1/10s",
	}
	for _, in := range bad {
		if _, err := ParseRule(in); err == nil {
			t.Errorf("ParseRule(%q) accepted, want error", in)
		}
	}
	rules, err := ParseRules("journal:shed>=1/1s, ,counter:m>=2/5s,")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("ParseRules kept %d rules, want 2", len(rules))
	}
}

// newTestWatchdog builds a watchdog over its own journal, registry, and
// incident directory, armed with one journal rule.
func newTestWatchdog(t *testing.T, rule string, opts func(*Config)) (*Watchdog, *Journal) {
	t.Helper()
	rules, err := ParseRules(rule)
	if err != nil {
		t.Fatal(err)
	}
	j := New(Options{Capacity: 64, Metrics: obs.New()})
	cfg := Config{
		Dir:     t.TempDir(),
		Rules:   rules,
		Journal: j,
		Metrics: obs.New(),
	}
	if opts != nil {
		opts(&cfg)
	}
	w, err := NewWatchdog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w, j
}

func TestJournalRuleCapturesBundle(t *testing.T) {
	tracer := trace.New(trace.Options{Service: "flight-test"})
	_, sp := tracer.StartRoot(t.Context(), "unit.query")
	sp.End()
	var w *Watchdog
	w, j := newTestWatchdog(t, "journal:breaker-open>=2/10s", func(c *Config) {
		extra := http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			obs.JSONHeaders(rw)
			_, _ = rw.Write([]byte(`{"hello":1}`))
		})
		c.Handler = c.Metrics.Handler(append(Routes(c.Journal, ""),
			obs.Route{Pattern: "/debug/traces", Handler: trace.DebugHandler(tracer), Capture: "/debug/traces?spans=1&limit=0"},
			obs.Route{Pattern: "/debug/extra", Handler: extra, Capture: "/debug/extra"},
			obs.Route{Pattern: "/debug/uncaptured", Handler: extra},
		)...)
	})

	// Below threshold: no capture.
	j.Publish(KindBreakerOpen, "dev-a", 1, 0)
	if meta, err := w.CheckNow(); err != nil || meta != nil {
		t.Fatalf("premature capture: meta=%v err=%v", meta, err)
	}
	j.Publish(KindBreakerOpen, "dev-b", 2, 0)
	meta, err := w.CheckNow()
	if err != nil {
		t.Fatal(err)
	}
	if meta == nil {
		t.Fatal("rule at threshold did not capture")
	}
	if meta.Rule != "journal:breaker-open>=2/10s" {
		t.Fatalf("incident rule = %q", meta.Rule)
	}
	bundle := filepath.Join(w.cfg.Dir, meta.ID)
	// Index (pattern) order, then meta.json; /debug/uncaptured is absent.
	want := []string{"extra.json", "journal.json", "pprof-goroutine.txt", "pprof-heap.bin",
		"traces.json", "vars.json", "healthz.json", "metrics.json", "meta.json"}
	if !slices.Equal(meta.Files, want) {
		t.Errorf("bundle files = %v, want %v", meta.Files, want)
	}
	for _, f := range want {
		if _, err := os.Stat(filepath.Join(bundle, f)); err != nil {
			t.Errorf("bundle missing %s: %v", f, err)
		}
	}
	gs, err := os.ReadFile(filepath.Join(bundle, "pprof-goroutine.txt"))
	if err != nil || !strings.Contains(string(gs), "goroutine ") {
		t.Errorf("pprof-goroutine.txt is not a stack dump (err=%v)", err)
	}
	var dump journalResponse
	jb, err := os.ReadFile(filepath.Join(bundle, "journal.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(jb, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != 2 || dump.Events[0].Kind != KindBreakerOpen {
		t.Fatalf("journal.json events = %+v", dump.Events)
	}
	tb, err := os.ReadFile(filepath.Join(bundle, "traces.json"))
	if err != nil || !strings.Contains(string(tb), "unit.query") {
		t.Errorf("trace ring not in bundle (err=%v)", err)
	}

	// The capture itself journals an incident event.
	if j.CountSince(KindIncident, 0) != 1 {
		t.Error("capture did not publish a flight incident event")
	}

	// Rate limit: the rule still fires but minGap suppresses a second bundle.
	if meta2, err := w.CheckNow(); err != nil || meta2 != nil {
		t.Fatalf("minGap did not rate-limit: meta=%v err=%v", meta2, err)
	}
	if got := len(w.Incidents()); got != 1 {
		t.Fatalf("Incidents() = %d, want 1", got)
	}

	// ListIncidents only reports complete bundles (meta.json present).
	listed := ListIncidents(w.cfg.Dir)
	if len(listed) != 1 || listed[0].ID != meta.ID {
		t.Fatalf("ListIncidents = %+v", listed)
	}
	if err := os.Remove(filepath.Join(bundle, "meta.json")); err != nil {
		t.Fatal(err)
	}
	if got := ListIncidents(w.cfg.Dir); len(got) != 0 {
		t.Fatalf("bundle without meta.json still listed: %+v", got)
	}
}

func TestRetentionPrunesOldest(t *testing.T) {
	w, _ := newTestWatchdog(t, "journal:shed>=1/1s", nil)
	for range maxIncidents + 2 {
		if _, err := w.Capture("manual", "retention test"); err != nil {
			t.Fatal(err)
		}
		// Bundle IDs are nanosecond timestamps; consecutive captures in a
		// tight loop still need distinct IDs.
		time.Sleep(2 * time.Millisecond)
	}
	listed := ListIncidents(w.cfg.Dir)
	if len(listed) != maxIncidents {
		t.Fatalf("retention kept %d bundles, want %d", len(listed), maxIncidents)
	}
	all := w.Incidents()
	if want := all[len(all)-1].ID; listed[len(listed)-1].ID != want {
		t.Fatalf("newest bundle %q not retained (have %q)", want, listed[len(listed)-1].ID)
	}
}

// TestStopWithoutStartReturnsAtOnce: a watchdog that never ran its loop has
// nothing to wait for.
func TestStopWithoutStartReturnsAtOnce(t *testing.T) {
	w, _ := newTestWatchdog(t, "journal:shed>=1/1s", nil)
	start := time.Now()
	w.Stop()
	w.Stop()
	if d := time.Since(start); d >= 100*time.Millisecond {
		t.Fatalf("Stop without Start took %v, want < 100ms", d)
	}
}

func TestCounterRuleFires(t *testing.T) {
	reg := obs.New()
	rule := &CounterRule{Metric: "unit_total", Delta: 5, Within: 40 * time.Millisecond}
	w, _ := newTestWatchdog(t, "journal:shed>=1/1s", func(c *Config) {
		c.Metrics = reg
		c.Rules = []Rule{rule}
	})
	c := reg.Counter("unit_total", "test counter")
	if fired, _ := rule.Fired(w); fired {
		t.Fatal("fired with no history")
	}
	c.Add(10)
	time.Sleep(15 * time.Millisecond) // past Within/4, inside the window
	fired, detail := rule.Fired(w)
	if !fired {
		t.Fatal("a +10 step within the window did not fire the >=5 rule")
	}
	if !strings.Contains(detail, "unit_total") {
		t.Fatalf("detail %q does not name the metric", detail)
	}
}

func TestIncidentsHandlerServesAndRefusesTraversal(t *testing.T) {
	w, j := newTestWatchdog(t, "journal:shed>=1/1s", nil)
	j.Publish(KindShed, "", 1, 0)
	meta, err := w.CheckNow()
	if err != nil || meta == nil {
		t.Fatalf("capture failed: meta=%v err=%v", meta, err)
	}
	// A secret outside the incident dir must be unreachable via the handler.
	secret := filepath.Join(filepath.Dir(w.cfg.Dir), "secret.txt")
	if err := os.WriteFile(secret, []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(IncidentsHandler(w.cfg.Dir))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String(), resp.Header.Get("Content-Type")
	}

	if code, body, ctype := get("/debug/incidents"); code != 200 || !strings.Contains(body, meta.ID) || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("listing: code=%d ctype=%q body=%q", code, ctype, body)
	}
	if code, body, _ := get("/debug/incidents/" + meta.ID); code != 200 || !strings.Contains(body, meta.Detail) {
		t.Fatalf("metadata: code=%d body=%q", code, body)
	}
	if code, body, ctype := get("/debug/incidents/" + meta.ID + "/journal.json"); code != 200 || !strings.Contains(body, "shed") || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("artifact: code=%d ctype=%q", code, ctype)
	}
	if code, _, ctype := get("/debug/incidents/" + meta.ID + "/pprof-goroutine.txt"); code != 200 || !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("text artifact: code=%d ctype=%q", code, ctype)
	}
	for _, path := range []string{
		"/debug/incidents/no-such-id",
		"/debug/incidents/" + meta.ID + "/no-such-file",
		"/debug/incidents/" + meta.ID + "/..%2Fsecret.txt",
		"/debug/incidents/..%2F..%2Fsecret.txt",
	} {
		if code, body, _ := get(path); code == 200 || strings.Contains(body, "nope") {
			t.Errorf("%s: code=%d body=%q (must not leak)", path, code, body)
		}
	}
}

func TestJournalHandlerFilters(t *testing.T) {
	j := New(Options{Capacity: 16, Metrics: obs.New()})
	j.Publish(KindShed, "", 1, 0)
	j.Publish(KindRetry, "", 2, 0)
	j.Publish(KindShed, "", 3, 0)
	srv := httptest.NewServer(JournalHandler(j))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "?kind=shed&limit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body journalResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Cache-Control") != "no-store" {
		t.Errorf("journal response cacheable: %q", resp.Header.Get("Cache-Control"))
	}
	if len(body.Events) != 1 || body.Events[0].Kind != KindShed || body.Events[0].A != 3 {
		t.Fatalf("?kind=shed&limit=1 returned %+v", body.Events)
	}
	if body.Seq != 3 || body.Capacity != 16 {
		t.Fatalf("header seq=%d cap=%d", body.Seq, body.Capacity)
	}

	bad, err := srv.Client().Get(srv.URL + "?kind=bogus")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Fatalf("unknown kind: code=%d, want 400", bad.StatusCode)
	}
}
