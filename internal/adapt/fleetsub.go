package adapt

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/engine"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/fleet"
	"github.com/scec/scec/internal/matrix"
)

// FleetAdapter binds the controller to a live fleet session and its
// engine.Swappable executor.
//
// Rehosts delegate to the session (push-then-swap, no re-encode: replicas of
// one block are security-equivalent, and the session binds every address to
// one block for its lifetime). A reshape is a full redeployment — at a new r,
// or at the same r when the plan needs a used device to hold a different
// block: the confidential matrix is reconstructed from the *initial*
// encoding (A is recoverable from any complete encoding, exactly the user's
// own decode path), re-encoded with fresh randomness under a code of the
// same kind (coding.Reshaped preserves the deployment's scheme — structured
// stays structured, t-collusion keeps its threshold), and served by a
// brand-new fleet session that SwapDrained installs behind a gate — new
// rounds wait, in-flight rounds drain, nothing fails. A reshape whose shape
// admits no t-secure row layout returns an error before any device is
// touched, so the swap degrades to a pause.
//
// When the session replicates blocks, the adapter plans over each block's
// first replica (the provisioning-order leader): the control loop migrates
// the replica the planner accounts for, and the fleet's self-repair
// machinery keeps the remaining replicas healthy independently.
type FleetAdapter[E comparable] struct {
	f        field.Field[E]
	enc0     *coding.Encoding[E] // initial encoding, for reconstruction
	swap     *engine.Swappable[E]
	template fleet.Config // policy reused for reshaped sessions
	pool     []string     // every address the adapter may provision

	dataOnce sync.Once
	data     *matrix.Dense[E] // reconstructed A, built on first reshape
	dataErr  error

	mu  sync.Mutex
	cur *fleet.Session[E]
	// carry is the replaced sessions' last RowLatencies reading; see
	// RowLatencies.
	carry map[string]float64
	rng   *rand.Rand
}

// NewFleetAdapter wraps a live session. template is the fleet policy reused
// when a reshape builds a replacement session (its Replicas/Standbys are
// overwritten per plan); rng feeds the fresh randomness of re-encodes.
func NewFleetAdapter[E comparable](f field.Field[E], enc *coding.Encoding[E], s *fleet.Session[E], swap *engine.Swappable[E], template fleet.Config, rng *rand.Rand) (*FleetAdapter[E], error) {
	if enc == nil || s == nil || swap == nil {
		return nil, fmt.Errorf("adapt: fleet adapter needs an encoding, a session, and a swappable executor")
	}
	if rng == nil {
		return nil, fmt.Errorf("adapt: fleet adapter needs a randomness source for re-encodes")
	}
	a := &FleetAdapter[E]{f: f, enc0: enc, swap: swap, template: template, cur: s, rng: rng}
	seen := make(map[string]bool)
	for _, hosts := range s.BlockHosts() {
		for _, addr := range hosts {
			if !seen[addr] {
				seen[addr] = true
				a.pool = append(a.pool, addr)
			}
		}
	}
	for _, addr := range s.StandbyAddrs() {
		if !seen[addr] {
			seen[addr] = true
			a.pool = append(a.pool, addr)
		}
	}
	return a, nil
}

// Session returns the session currently serving queries (it changes across
// reshapes).
func (a *FleetAdapter[E]) Session() *fleet.Session[E] {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur
}

// Placements reports each block's leader replica and row count.
func (a *FleetAdapter[E]) Placements() []BlockHost {
	s := a.Session()
	code := s.Code()
	hosts := s.BlockHosts()
	out := make([]BlockHost, 0, len(hosts))
	for j, group := range hosts {
		if len(group) == 0 {
			continue
		}
		out = append(out, BlockHost{Block: j, Addr: group[0], Rows: code.RowsOn(j)})
	}
	return out
}

// Free lists standbys eligible to receive any block right now.
func (a *FleetAdapter[E]) Free() []string { return a.Session().StandbyAddrs() }

// Bindings reports the serving session's address → block bindings; a reshape
// installs a new session, which starts with only its provisioned hosts bound.
func (a *FleetAdapter[E]) Bindings() map[string]int { return a.Session().Bindings() }

// RowLatencies reads the serving session's straggler record (see
// rowLatencies). A reshape starts a session whose records are empty, so a
// device the new session has not yet measured is answered from the replaced
// session's last reading: without it a straggler just evicted would look
// nominal again, and TA2 at base costs would move a block back onto it.
func (a *FleetAdapter[E]) RowLatencies() map[string]float64 {
	a.mu.Lock()
	s, carry := a.cur, a.carry
	a.mu.Unlock()
	out := rowLatencies(s.Stragglers(), s.Bindings(), s.Code().RowsOn)
	for addr, v := range carry {
		if _, ok := out[addr]; !ok {
			out[addr] = v
		}
	}
	return out
}

// rowLatencies is one session's per-row reading of its straggler record:
// every device with at least fleet.MinAdaptiveSamples samples that is bound
// to a block, at its p50 in seconds over that block's coded rows.
func rowLatencies(stats []fleet.DeviceStats, bound map[string]int, rowsOn func(int) int) map[string]float64 {
	out := make(map[string]float64, len(stats))
	for _, st := range stats {
		j, ok := bound[st.Device]
		if !ok || st.Samples < fleet.MinAdaptiveSamples {
			continue
		}
		if rows := rowsOn(j); rows > 0 {
			out[st.Device] = st.P50.Seconds() / float64(rows)
		}
	}
	return out
}

// Healthy reports the device's breaker state.
func (a *FleetAdapter[E]) Healthy(addr string) bool { return a.Session().DeviceHealthy(addr) }

// RTT reports the last round trip measured on the device's connection.
func (a *FleetAdapter[E]) RTT(addr string) (time.Duration, bool) { return a.Session().DeviceRTT(addr) }

// Rehost moves one block live; see fleet.Session.Rehost.
func (a *FleetAdapter[E]) Rehost(ctx context.Context, block int, from, to string) error {
	return a.Session().Rehost(ctx, block, from, to)
}

// Reshape redeploys at a new r behind the executor gate. The replacement
// session serves one replica per block at target's addresses; every pool
// device not hosting a block becomes a standby of the new session, so
// self-repair and later rehosts keep working.
func (a *FleetAdapter[E]) Reshape(ctx context.Context, target []string, r int) error {
	a.dataOnce.Do(func() {
		a.data, a.dataErr = coding.Reconstruct(a.enc0)
	})
	if a.dataErr != nil {
		return fmt.Errorf("adapt: reshape: reconstruct data matrix: %w", a.dataErr)
	}
	code, err := coding.Reshaped(a.enc0.Code, a.data.Rows(), r, len(target))
	if err != nil {
		return fmt.Errorf("adapt: reshape: %w", err)
	}

	a.mu.Lock()
	enc, err := code.Encode(a.data, a.rng)
	a.mu.Unlock()
	if err != nil {
		return fmt.Errorf("adapt: reshape: re-encode: %w", err)
	}

	cfg := a.template
	cfg.Replicas = make([][]string, len(target))
	used := make(map[string]bool, len(target))
	for j, addr := range target {
		cfg.Replicas[j] = []string{addr}
		used[addr] = true
	}
	cfg.Standbys = nil
	for _, addr := range a.pool {
		if !used[addr] {
			cfg.Standbys = append(cfg.Standbys, addr)
		}
	}

	var next *fleet.Session[E]
	err = a.swap.SwapDrained(ctx, func(ctx context.Context) (engine.Executor[E], coding.Code[E], error) {
		s, err := fleet.Serve(a.f, enc, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("adapt: reshape: provision: %w", err)
		}
		next = s
		return engine.WrapSession(s, true), code, nil
	})
	if err != nil {
		return err
	}
	carry := a.RowLatencies() // the drained session's last reading
	a.mu.Lock()
	a.cur, a.carry = next, carry
	a.mu.Unlock()
	return nil
}

var _ Substrate = (*FleetAdapter[uint64])(nil)
