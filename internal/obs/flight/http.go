package flight

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/scec/scec/internal/obs"
)

// journalResponse is the /debug/journal body.
type journalResponse struct {
	Seq      uint64  `json:"seq"`
	Capacity int     `json:"capacity"`
	Events   []Event `json:"events"`
}

// JournalHandler serves the journal ring as JSON:
//
//	GET /debug/journal              retained events, oldest first
//	    ?limit=N                    only the most recent N
//	    ?kind=<name>                only events of one kind
func JournalHandler(j *Journal) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		events := j.Snapshot()
		if v := req.URL.Query().Get("kind"); v != "" {
			kind, ok := ParseKind(v)
			if !ok {
				http.Error(w, "unknown event kind: "+v, http.StatusBadRequest)
				return
			}
			kept := events[:0]
			for _, ev := range events {
				if ev.Kind == kind {
					kept = append(kept, ev)
				}
			}
			events = kept
		}
		if v := req.URL.Query().Get("limit"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 && n < len(events) {
				events = events[len(events)-n:]
			}
		}
		writeJSON(w, journalResponse{Seq: j.Seq(), Capacity: j.Capacity(), Events: events})
	})
}

// incidentsResponse is the /debug/incidents body.
type incidentsResponse struct {
	Dir       string         `json:"dir"`
	Incidents []IncidentMeta `json:"incidents"`
}

// IncidentsHandler serves the incident bundles under dir:
//
//	GET /debug/incidents                 bundle metadata list, oldest first
//	GET /debug/incidents/{id}            one bundle's metadata
//	GET /debug/incidents/{id}/{file}     one artifact file from a bundle
//
// IDs and file names are validated against the actual directory listing, so
// the handler cannot be walked outside dir.
func IncidentsHandler(dir string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/incidents", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, incidentsResponse{Dir: dir, Incidents: ListIncidents(dir)})
	})
	mux.HandleFunc("/debug/incidents/{id}", func(w http.ResponseWriter, req *http.Request) {
		meta, ok := findIncident(dir, req.PathValue("id"))
		if !ok {
			http.Error(w, "no such incident", http.StatusNotFound)
			return
		}
		writeJSON(w, meta)
	})
	mux.HandleFunc("/debug/incidents/{id}/{file}", func(w http.ResponseWriter, req *http.Request) {
		meta, ok := findIncident(dir, req.PathValue("id"))
		if !ok {
			http.Error(w, "no such incident", http.StatusNotFound)
			return
		}
		name := req.PathValue("file")
		if !fileListed(meta, name) {
			http.Error(w, "no such bundle file", http.StatusNotFound)
			return
		}
		b, err := os.ReadFile(filepath.Join(dir, meta.ID, name))
		if err != nil {
			http.Error(w, "bundle file unreadable", http.StatusNotFound)
			return
		}
		switch {
		case strings.HasSuffix(name, ".json"):
			obs.JSONHeaders(w)
		case strings.HasSuffix(name, ".txt"):
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.Header().Set("Cache-Control", "no-store")
		default:
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Cache-Control", "no-store")
		}
		_, _ = w.Write(b)
	})
	return mux
}

// findIncident resolves an ID against the directory listing (never against
// the raw request path, so traversal sequences cannot reach the fs).
func findIncident(dir, id string) (IncidentMeta, bool) {
	for _, m := range ListIncidents(dir) {
		if m.ID == id {
			return m, true
		}
	}
	return IncidentMeta{}, false
}

// fileListed reports whether name is one of the bundle's recorded artifacts.
func fileListed(m IncidentMeta, name string) bool {
	for _, f := range m.Files {
		if f == name {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, v any) {
	obs.JSONHeaders(w)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Routes returns the journal and incident debug routes in the shape
// obs.Handler mounts. dir may be empty, in which case only the journal
// route is returned.
func Routes(j *Journal, dir string) []obs.Route {
	routes := []obs.Route{
		{Pattern: "/debug/journal", Handler: JournalHandler(j),
			Desc: "flight-recorder event journal (?limit=N, ?kind=<name>)", Capture: "/debug/journal"},
	}
	if dir != "" {
		h := IncidentsHandler(dir)
		routes = append(routes,
			obs.Route{Pattern: "/debug/incidents", Handler: h,
				Desc: "captured incident bundles (metadata list)"},
			obs.Route{Pattern: "/debug/incidents/{id}", Handler: h,
				Desc: "one incident bundle's metadata"},
			obs.Route{Pattern: "/debug/incidents/{id}/{file}", Handler: h,
				Desc: "one incident bundle artifact file"},
		)
	}
	return routes
}
