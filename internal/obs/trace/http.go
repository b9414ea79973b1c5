package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// tracesResponse is the /debug/traces body: summaries by default, full
// waterfall spans with ?spans=1.
type tracesResponse struct {
	Service string `json:"service"`
	// Started/Ended/Adopted/Retained are the tracer's lifetime counters.
	Started  int64       `json:"started"`
	Ended    int64       `json:"ended"`
	Adopted  int64       `json:"adopted"`
	Retained int64       `json:"retained"`
	Traces   []TraceView `json:"traces"`
}

// DebugHandler serves the tracer's retained traces as waterfall-ready
// JSON:
//
//	GET /debug/traces            most recent traces (?limit=N, 20 by default
//	                             and 0 for every retained trace; ?spans=1)
//	GET /debug/traces/{id}       one full trace by 32-hex-digit ID
//
// Mount both patterns on the obs handler via its extra-route hook.
func DebugHandler(t *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, req *http.Request) {
		limit := 20
		if v := req.URL.Query().Get("limit"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 {
				limit = n
			}
		}
		wantSpans := req.URL.Query().Get("spans") == "1"
		resp := tracesResponse{Service: t.Service()}
		resp.Started, resp.Ended, resp.Adopted, resp.Retained = t.Stats()
		views := t.Assemble()
		if limit > 0 && len(views) > limit {
			views = views[:limit]
		}
		if !wantSpans {
			for i := range views {
				views[i].Spans = nil
			}
		}
		resp.Traces = views
		writeJSON(w, resp)
	})
	mux.HandleFunc("/debug/traces/{id}", func(w http.ResponseWriter, req *http.Request) {
		id := req.PathValue("id")
		view, ok := t.AssembleTrace(id)
		if !ok {
			http.Error(w, "trace not retained: "+id, http.StatusNotFound)
			return
		}
		writeJSON(w, view)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	// Mirrors obs.JSONHeaders (not imported here to keep trace free of an
	// obs dependency): JSON content type + no-store, the repo-wide debug
	// endpoint contract.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
