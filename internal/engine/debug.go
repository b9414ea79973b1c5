package engine

import (
	"encoding/json"
	"net/http"
	"time"

	"github.com/scec/scec/internal/obs"
)

// DebugInfo is the query layer's live snapshot, served by DebugHandler as
// /debug/engine.
type DebugInfo struct {
	// Backend is the executor's name (local|sim|fleet).
	Backend string `json:"backend"`
	// Cols is the input-vector length the engine accepts.
	Cols int `json:"cols"`
	// DispatchVec/DispatchMat are the lifetime executor invocations by kind
	// (coalesced rounds count once).
	DispatchVec int64 `json:"dispatchVec"`
	DispatchMat int64 `json:"dispatchMat"`
	// Coalescing is present when request coalescing is enabled. Stage
	// latency tails are not repeated here: /metrics.json reports them as the
	// quantiles of scec_stage_duration_seconds.
	Coalescing *CoalesceDebug `json:"coalescing,omitempty"`
}

// CoalesceDebug is the coalescer's configuration and occupancy.
type CoalesceDebug struct {
	// Window is the configured window; 0 means group commit, where the
	// return of the round in flight sends the queued callers out. MaxBatch
	// caps a round's width.
	Window   time.Duration `json:"windowNs"`
	MaxBatch int           `json:"maxBatch"`
	// Occupancy is how many callers are queued for the next round right now.
	Occupancy int `json:"occupancy"`
	// Rounds and Merged are lifetime totals: rounds run from the queue and
	// the callers they served (Merged/Rounds is the realized mean batch
	// size). A group-commit caller that found no round in flight ran alone
	// and counts in neither.
	Rounds int64 `json:"rounds"`
	Merged int64 `json:"merged"`
}

// Debug snapshots the engine's dispatch counters and coalescer occupancy.
func (q *Query[E]) Debug() DebugInfo {
	info := DebugInfo{
		Backend:     q.Backend(),
		Cols:        q.cols,
		DispatchVec: q.vec.Value(),
		DispatchMat: q.mat.Value(),
	}
	if q.co != nil {
		info.Coalescing = &CoalesceDebug{
			Window:    q.co.window,
			MaxBatch:  q.co.max,
			Occupancy: q.co.occupancy(),
			Rounds:    q.co.rounds.Load(),
			Merged:    q.co.merged.Load(),
		}
	}
	return info
}

// DebugHandler serves the Debug snapshot as JSON — mount it as
// /debug/engine via the obs handler's extra-route hook.
func (q *Query[E]) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		obs.JSONHeaders(w)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(q.Debug())
	})
}
