package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strings"
)

// CapturedRoute is one route a CaptureDebug call fetched.
type CapturedRoute struct {
	Pattern string `json:"pattern"`
	// URL is the route's capture URL (RouteInfo.Capture).
	URL string `json:"url"`
	// File is the file written for the route under the capture directory:
	// the body, or "<name>.err" holding the error when the fetch failed.
	File  string `json:"file"`
	Bytes int    `json:"bytes,omitempty"`
	Err   string `json:"err,omitempty"`
}

// CaptureDebug captures a process's debug surface into dir. It reads the
// /debug index that client serves at base, fetches every route the index
// marks as captured, and writes one file per route, named by
// captureFileName. Routes are taken in index order, and one record per
// captured route is returned in that order. A route that fails to fetch
// leaves a "<name>.err" file holding the error, so a partial capture says
// what is missing; only an unreadable index or a failed write is an error.
//
// The same function serves both callers: `scecnet debug snapshot` passes a
// plain HTTP client and the process's telemetry address, and the flight
// recorder's watchdog passes a client whose HandlerTransport serves the
// requests from the process's own mux.
func CaptureDebug(client *http.Client, base, dir string) ([]CapturedRoute, error) {
	body, _, err := fetch(client, base+"/debug")
	if err != nil {
		return nil, fmt.Errorf("no /debug index at %s: %w", base, err)
	}
	var index struct {
		Routes []RouteInfo `json:"routes"`
	}
	if err := json.Unmarshal(body, &index); err != nil {
		return nil, fmt.Errorf("parse /debug index from %s: %w", base, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var out []CapturedRoute
	for _, rt := range index.Routes {
		if rt.Capture == "" {
			continue
		}
		c := CapturedRoute{Pattern: rt.Pattern, URL: rt.Capture}
		b, ctype, err := fetch(client, base+rt.Capture)
		c.File = captureFileName(rt.Pattern, ctype)
		if err != nil {
			c.Err = err.Error()
			c.File = strings.TrimSuffix(c.File, path.Ext(c.File)) + ".err"
			b = []byte(c.Err + "\n")
		} else {
			c.Bytes = len(b)
		}
		if err := os.WriteFile(filepath.Join(dir, c.File), b, 0o644); err != nil {
			return out, err
		}
		out = append(out, c)
	}
	return out, nil
}

// fetch GETs url and returns the body and Content-Type; non-200 is an error.
func fetch(client *http.Client, url string) ([]byte, string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s: %s", url, resp.Status)
	}
	return body, resp.Header.Get("Content-Type"), nil
}

// captureFileName is the one naming rule for captured routes: the pattern
// without its leading "/debug/" (or "/"), slashes turned into dashes, plus
// an extension for the served media type unless the pattern already ends in
// one — /debug/fleet → fleet.json, /metrics.json → metrics.json,
// /debug/pprof/goroutine → pprof-goroutine.txt, /debug/pprof/heap →
// pprof-heap.bin.
func captureFileName(pattern, ctype string) string {
	name := strings.TrimPrefix(pattern, "/")
	name = strings.TrimPrefix(name, "debug/")
	name = strings.ReplaceAll(name, "/", "-")
	if path.Ext(name) != "" {
		return name
	}
	mt, _, _ := mime.ParseMediaType(ctype)
	switch {
	case mt == "application/json":
		return name + ".json"
	case strings.HasPrefix(mt, "text/"):
		return name + ".txt"
	default:
		return name + ".bin"
	}
}

// HandlerTransport is an http.RoundTripper that answers each request from
// Handler in-process, with no socket. A request whose context ends first
// (the client's Timeout) returns the context's error; the handler keeps
// running to completion on its own goroutine.
type HandlerTransport struct {
	Handler http.Handler
}

// RoundTrip serves req from the handler.
func (t HandlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := &responseBuffer{header: http.Header{}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		t.Handler.ServeHTTP(w, req)
	}()
	select {
	case <-done:
	case <-req.Context().Done():
		return nil, req.Context().Err()
	}
	code := w.code
	if code == 0 {
		code = http.StatusOK
	}
	return &http.Response{
		Status:     fmt.Sprintf("%d %s", code, http.StatusText(code)),
		StatusCode: code,
		Header:     w.header,
		Body:       io.NopCloser(&w.body),
		Request:    req,
	}, nil
}

// responseBuffer is the http.ResponseWriter HandlerTransport hands the
// handler. Like net/http's server, it sniffs a Content-Type the handler
// did not set from the first bytes written.
type responseBuffer struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *responseBuffer) Header() http.Header { return w.header }

func (w *responseBuffer) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *responseBuffer) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK) // the status is fixed once the body starts
	if w.body.Len() == 0 && w.header.Get("Content-Type") == "" {
		w.header.Set("Content-Type", http.DetectContentType(b))
	}
	return w.body.Write(b)
}
