package fleet

import (
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"time"

	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/transport"
)

// DebugInfo is the session's live runtime snapshot, served by DebugHandler
// as /debug/fleet.
type DebugInfo struct {
	// Blocks holds one entry per logical coded block, in scheme order.
	Blocks []BlockDebug `json:"blocks"`
	// Standbys lists the warm standby pool (devices serving no block).
	Standbys []DeviceDebug `json:"standbys"`
	// Hedges/Retries/Queries/QueryErrors are the session's lifetime counters.
	Hedges      int64 `json:"hedges"`
	Retries     int64 `json:"retries"`
	Queries     int64 `json:"queries"`
	QueryErrors int64 `json:"queryErrors"`
	// Stragglers is every known device's straggler record (Session.Stragglers).
	Stragglers []DeviceStats `json:"stragglers"`
}

// DeviceStats is one device's straggler record: how its replica attempts
// ended and the nearest-rank percentiles of its last 64 attempt latencies,
// each a winning attempt's own call time or, for a loss overtaken by a
// later-launched peer, its time until withdrawn — a lower bound. Every
// launched attempt ends exactly one way, so Attempts = Wins + Losses +
// Errors. Percentiles are zero until the device has a sample.
type DeviceStats struct {
	Device   string `json:"device"`
	Attempts int64  `json:"attempts"`
	Wins     int64  `json:"wins"`
	// HedgeWins counts wins by attempts launched speculatively — races this
	// device rescued after the leader straggled.
	HedgeWins int64 `json:"hedgeWins"`
	// Losses counts attempts that answered after another replica won or were
	// cancelled when their race ended; Errors counts attempts that failed.
	Losses  int64         `json:"losses"`
	Errors  int64         `json:"errors"`
	Samples int           `json:"samples"`
	P50     time.Duration `json:"p50Ns"`
	P95     time.Duration `json:"p95Ns"`
	P99     time.Duration `json:"p99Ns"`
}

// BlockDebug is one logical block's replica-set state.
type BlockDebug struct {
	Block int `json:"block"`
	// Target is the provisioned replica count self-repair defends.
	Target int `json:"target"`
	// Healthy counts replicas with fully closed breakers.
	Healthy int `json:"healthy"`
	// Repairing reports an in-flight standby promotion.
	Repairing bool `json:"repairing"`
	// Leader is the replica a round started now would ask first — the
	// healthy one of least expected completion by the straggler records —
	// and HedgeDelay how long that round would wait for it before hedging
	// (fixed, or the leader's own p95). HedgeDelay is zero when hedging is
	// off or there is nobody to hedge to — no other replica whose breaker
	// would admit it now; both are empty with no healthy replica.
	Leader     string        `json:"leader,omitempty"`
	HedgeDelay time.Duration `json:"hedgeDelayNs"`
	Replicas   []DeviceDebug `json:"replicas"`
}

// DeviceDebug is one physical device's breaker position, block binding and
// pooled transport connection state.
type DeviceDebug struct {
	Addr    string `json:"addr"`
	Breaker string `json:"breaker"`
	// Block is the one block this address may hold under the session's
	// encoding (-1: never sent one). A healthy standby with Block >= 0 is
	// eligible for that block only — which is why repair or a rehost of any
	// other block passes it over.
	Block int `json:"block"`
	// Conn is the transport pool's view of this device: in-flight streams,
	// the last measured round trip, and when the device was last heard from
	// over the persistent connection.
	Conn transport.ConnDebug `json:"conn,omitzero"`
}

// Debug snapshots the session's runtime state: per-block replica health,
// leader and hedge delay, breaker positions, the standby pool, the lifetime
// hedge/retry/query counters, and the per-device straggler records.
func (s *Session[E]) Debug() DebugInfo {
	info := DebugInfo{
		Hedges:      s.met.hedges.Value(),
		Retries:     s.met.retries.Value(),
		Queries:     s.met.queriesVec.Value() + s.met.queriesMat.Value(),
		QueryErrors: s.met.qErrorsVec.Value() + s.met.qErrorsMat.Value(),
		Stragglers:  s.Stragglers(),
	}
	now := s.clk.Now()
	for _, b := range s.blocks {
		b.mu.Lock()
		bd := BlockDebug{
			Block:     b.index,
			Target:    b.target,
			Repairing: b.repairing,
			Replicas:  make([]DeviceDebug, 0, len(b.replicas)),
		}
		replicas := make([]*device, len(b.replicas))
		copy(replicas, b.replicas)
		b.mu.Unlock()
		var healthy []*device
		routed := 0 // the replicas a round started now would route to
		for _, d := range replicas {
			st := d.State()
			if st == BreakerClosed {
				healthy = append(healthy, d)
			}
			if d.admits(now, s.cfg.BreakerCooldown) {
				routed++
			}
			bd.Replicas = append(bd.Replicas, DeviceDebug{Addr: d.addr, Breaker: st.String(), Block: d.bound(), Conn: s.link.ConnDebug(d.addr)})
		}
		if bd.Healthy = len(healthy); bd.Healthy > 0 {
			lead := s.rank(healthy)
			bd.Leader = healthy[0].addr
			if routed > 1 {
				bd.HedgeDelay, _ = s.hedgeDelay(lead)
			}
		}
		info.Blocks = append(info.Blocks, bd)
	}
	s.standbyMu.Lock()
	standbys := make([]*device, len(s.standbys))
	copy(standbys, s.standbys)
	s.standbyMu.Unlock()
	for _, d := range standbys {
		info.Standbys = append(info.Standbys, DeviceDebug{Addr: d.addr, Breaker: d.State().String(), Block: d.bound(), Conn: s.link.ConnDebug(d.addr)})
	}
	return info
}

// Stragglers snapshots the straggler record of every device the session
// knows — replicas, standbys and rehost targets — sorted by address. The
// session keeps it whether or not it is traced.
func (s *Session[E]) Stragglers() []DeviceStats {
	s.devMu.Lock()
	devices := make([]*device, 0, len(s.devices))
	for _, d := range s.devices {
		devices = append(devices, d)
	}
	s.devMu.Unlock()
	out := make([]DeviceStats, len(devices))
	for i, d := range devices {
		out[i] = d.stats()
	}
	slices.SortFunc(out, func(a, b DeviceStats) int { return strings.Compare(a.Device, b.Device) })
	return out
}

// DebugHandler serves the Debug snapshot as JSON — mount it as /debug/fleet
// via the obs handler's extra-route hook.
func (s *Session[E]) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		obs.JSONHeaders(w)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.Debug())
	})
}
