package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/scec/scec/internal/obs"
)

// IncidentMeta is the metadata record written as meta.json in each bundle
// and served by /debug/incidents.
type IncidentMeta struct {
	// ID is the bundle directory name (a UTC timestamp, unique per capture).
	ID string `json:"id"`
	// At is the wall-clock capture time.
	At time.Time `json:"at"`
	// Rule is the trigger rule's Name().
	Rule string `json:"rule"`
	// Detail is the rule's violation description at fire time.
	Detail string `json:"detail"`
	// JournalSeq is the journal's sequence number at capture.
	JournalSeq uint64 `json:"journal_seq"`
	// Files lists the bundle's artifact files.
	Files []string `json:"files"`
}

// Capture writes one incident bundle under cfg.Dir and enforces retention.
// It is exported so CLIs can force a capture (rule = "manual") without a
// rule firing.
//
// A bundle is the process's debug surface captured in-process: every route
// the telemetry mux's /debug index marks as captured, fetched through
// cfg.Handler by obs.CaptureDebug and named by its one rule (metrics.json,
// journal.json, fleet.json, traces.json, pprof-goroutine.txt,
// pprof-heap.bin, ...) — the same files `scecnet debug snapshot` pulls from
// a live process over HTTP. meta.json (IncidentMeta) is written last, so a
// listed bundle is complete.
func (w *Watchdog) Capture(rule, detail string) (*IncidentMeta, error) {
	id := time.Now().UTC().Format("20060102T150405.000000000Z")
	dir := filepath.Join(w.cfg.Dir, id)
	meta := IncidentMeta{
		ID:         id,
		At:         time.Now().UTC(),
		Rule:       rule,
		Detail:     detail,
		JournalSeq: w.cfg.Journal.Seq(),
	}
	captured, err := obs.CaptureDebug(w.client, "http://in-process", dir)
	if err != nil {
		return nil, fmt.Errorf("flight: incident capture: %w", err)
	}
	for _, c := range captured {
		meta.Files = append(meta.Files, c.File)
	}
	meta.Files = append(meta.Files, "meta.json")
	b, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), b, 0o644); err != nil {
		return nil, fmt.Errorf("flight: incident meta: %w", err)
	}

	w.mu.Lock()
	w.incidents = append(w.incidents, meta)
	w.mu.Unlock()
	w.cfg.Journal.PublishDetail(KindIncident, rule, id, int64(len(meta.Files)), 0)
	w.prune()
	return &meta, nil
}

// prune deletes the oldest bundle directories beyond maxIncidents.
func (w *Watchdog) prune() {
	ids, err := bundleIDs(w.cfg.Dir)
	if err != nil || len(ids) <= maxIncidents {
		return
	}
	for _, id := range ids[:len(ids)-maxIncidents] {
		_ = os.RemoveAll(filepath.Join(w.cfg.Dir, id))
	}
}

// bundleIDs lists bundle directory names under root, oldest first (IDs are
// UTC timestamps, so lexical order is chronological).
func bundleIDs(root string) ([]string, error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// ListIncidents reads every complete bundle's meta.json under root, oldest
// first. Bundles without a readable meta.json (in-progress or damaged
// captures) are skipped.
func ListIncidents(root string) []IncidentMeta {
	ids, err := bundleIDs(root)
	if err != nil {
		return nil
	}
	var out []IncidentMeta
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(root, id, "meta.json"))
		if err != nil {
			continue
		}
		var m IncidentMeta
		if json.Unmarshal(b, &m) == nil {
			out = append(out, m)
		}
	}
	return out
}
