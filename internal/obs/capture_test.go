package obs

import (
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestCaptureDebugInProcess captures a mux through HandlerTransport: the
// captured routes land in index order under the one naming rule, a route
// that fails or blocks past the client's timeout leaves <name>.err, and
// uncaptured routes are skipped.
func TestCaptureDebugInProcess(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	h := New().Handler(
		Route{Pattern: "/debug/missing", Handler: http.NotFoundHandler(), Capture: "/debug/missing"},
		Route{Pattern: "/debug/plain", Capture: "/debug/plain", Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("hello"))
		})},
		Route{Pattern: "/debug/stuck", Capture: "/debug/stuck", Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
			<-block
		})},
		Route{Pattern: "/debug/quiet", Handler: http.NotFoundHandler()},
	)
	dir := filepath.Join(t.TempDir(), "capture")
	client := &http.Client{Transport: HandlerTransport{Handler: h}, Timeout: 200 * time.Millisecond}
	got, err := CaptureDebug(client, "http://in-process", dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, c := range got {
		files = append(files, c.File)
		if strings.HasSuffix(c.File, ".err") != (c.Err != "") {
			t.Errorf("%s: file %s does not match err %q", c.Pattern, c.File, c.Err)
		}
	}
	want := []string{"missing.err", "plain.txt", "pprof-goroutine.txt", "pprof-heap.bin", "stuck.err",
		"vars.json", "healthz.json", "metrics.json"}
	if !slices.Equal(files, want) {
		t.Fatalf("captured %v, want %v", files, want)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "plain.txt")); err != nil || string(b) != "hello" {
		t.Errorf("plain.txt = %q (err %v)", b, err)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "missing.err")); err != nil || !strings.Contains(string(b), "404") {
		t.Errorf("missing.err = %q (err %v)", b, err)
	}
}
