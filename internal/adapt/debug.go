package adapt

import (
	"encoding/json"
	"net/http"

	"github.com/scec/scec/internal/obs"
)

// DebugInfo is the control plane's live snapshot, served as JSON at
// /debug/adapt.
type DebugInfo struct {
	// NowMs is the controller clock (elapsed since construction).
	NowMs int64 `json:"nowMs"`
	// Replans/Adopts/BlocksMoved are lifetime counters.
	Replans     int `json:"replans"`
	Adopts      int `json:"adopts"`
	BlocksMoved int `json:"blocksMoved"`
	// Estimates prices every device with a latency or RTT reading, sorted by
	// address (see estimate).
	Estimates []DeviceEstimate `json:"estimates"`
	// Placements is the live block → device assignment.
	Placements []BlockHost `json:"placements"`
	// Free lists devices currently eligible to receive a block.
	Free []string `json:"free"`
	// Decisions is the bounded plan history, oldest first.
	Decisions []Decision `json:"decisions"`
	// Events is the bounded migration history, oldest first.
	Events []MigrationEvent `json:"events"`
}

// Debug snapshots the controller.
func (c *Controller) Debug() DebugInfo {
	info := DebugInfo{
		NowMs:      c.Now().Milliseconds(),
		Estimates:  estimate(c.sub, c.planner.Hosts()),
		Placements: c.sub.Placements(),
		Free:       c.sub.Free(),
	}
	c.mu.Lock()
	info.Replans, info.Adopts, info.BlocksMoved = c.replans, c.adopts, c.moved
	info.Decisions = append([]Decision(nil), c.decisions...)
	info.Events = append([]MigrationEvent(nil), c.events...)
	c.mu.Unlock()
	return info
}

// DebugHandler serves Debug() as JSON; mount it as /debug/adapt.
func (c *Controller) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obs.JSONHeaders(w)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.Debug())
	})
}
