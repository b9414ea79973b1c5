package fleet

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
)

// The fleet side of live block migration. The adaptive control plane
// (internal/adapt) decides *when* a block should move; Rehost is the fleet
// mechanism that moves it without interrupting service:
//
//  1. the destination is bound to the block (device.bind) — before the push,
//     because a Store that times out may still have landed;
//  2. the block's retained coded rows are pushed to it (the self-repair push:
//     replicas of one block are security-equivalent by Def. 2, no re-encode);
//  3. under the block's lock, the destination joins the replica set and the
//     vacated source leaves it, atomically from any query's point of view
//     (candidates snapshot the set under the same lock).
//
// The vacated source returns to the standby pool still bound to its block: it
// may be promoted again for that block (the same rows, so attempts still
// reading the old replica set from it are unaffected) and never for another.
// Putting a different block on a used device needs a fresh R, and so does
// changing r — both re-encode every block and swap the whole session through
// engine.Swappable; see internal/adapt.

// Code exposes the session's coding code (the adaptive planner needs the
// per-block row counts it implies).
func (s *Session[E]) Code() coding.Code[E] { return s.code }

// BlockHosts snapshots the current replica addresses of every logical
// block, in code device order.
func (s *Session[E]) BlockHosts() [][]string {
	hosts := make([][]string, len(s.blocks))
	for j, b := range s.blocks {
		b.mu.Lock()
		group := make([]string, len(b.replicas))
		for i, d := range b.replicas {
			group[i] = d.addr
		}
		b.mu.Unlock()
		hosts[j] = group
	}
	return hosts
}

// StandbyAddrs lists the standby devices eligible to receive any block:
// healthy breakers, not yet bound to one.
func (s *Session[E]) StandbyAddrs() []string {
	s.standbyMu.Lock()
	defer s.standbyMu.Unlock()
	var addrs []string
	for _, d := range s.standbys {
		if d.healthy() && d.bound() == -1 {
			addrs = append(addrs, d.addr)
		}
	}
	return addrs
}

// Bindings reports every address that has been sent a block under this
// session's encoding and which one: current replicas, vacated hosts, and
// standbys whose push failed (it may have landed).
func (s *Session[E]) Bindings() map[string]int {
	s.devMu.Lock()
	defer s.devMu.Unlock()
	bound := make(map[string]int, len(s.devices))
	for addr, d := range s.devices {
		if b := d.bound(); b != -1 {
			bound[addr] = b
		}
	}
	return bound
}

// DeviceHealthy reports whether addr's circuit breaker is fully closed.
// Unknown devices report false.
func (s *Session[E]) DeviceHealthy(addr string) bool {
	s.devMu.Lock()
	d := s.devices[addr]
	s.devMu.Unlock()
	return d != nil && d.healthy()
}

// DeviceRTT reports the last measured transport round trip toward addr
// (negotiation handshake or probe ping): the cold
// prior's input, and the adaptive planner's network signal.
func (s *Session[E]) DeviceRTT(addr string) (time.Duration, bool) {
	return s.link.LastRTT(addr)
}

const rehostHelp = "Live block migrations (adaptive rehost pushes), by outcome."

// Rehost moves logical block `block` from replica `from` to device `to`
// without interrupting queries: push first, then an atomic replica swap.
// `to` is normally a warm standby; an address the session has never seen is
// registered on the fly (the caller vouches a device server runs there).
// Either way it must be unbound or bound to this same block, so a block can
// walk across fresh devices and back onto its former hosts, and nothing else.
func (s *Session[E]) Rehost(ctx context.Context, block int, from, to string) error {
	if block < 0 || block >= len(s.blocks) {
		return fmt.Errorf("fleet: rehost block %d of %d", block, len(s.blocks))
	}
	if from == to {
		return fmt.Errorf("fleet: rehost block %d onto its own host %s", block, to)
	}
	b := s.blocks[block]
	if !b.hosts(from) {
		return fmt.Errorf("fleet: rehost: %s does not host block %d", from, block)
	}
	// The registered device (standby or not), or a new registration; bound
	// and taken out of the pool in one step, so self-repair cannot claim it
	// in between.
	dest := s.newDevice(to)
	s.standbyMu.Lock()
	ok := dest.bind(block) && !b.hosts(to)
	if i := slices.Index(s.standbys, dest); ok && i >= 0 {
		s.standbys = slices.Delete(s.standbys, i, i+1)
	}
	s.standbyMu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: rehost destination %s already hosts, or was once sent, block %d of this encoding", to, dest.bound())
	}
	if err := s.promote(ctx, b, dest, from); err != nil {
		s.reg.Counter(obs.MetricFleetRehostsTotal, rehostHelp, obs.L("outcome", outcomeFailed)).Inc()
		s.jr.PublishDetail(flight.KindRehostFailed, to, err.Error(), int64(block), 0)
		return fmt.Errorf("fleet: rehost block %d to %s: %w", block, to, err)
	}
	s.reg.Counter(obs.MetricFleetRehostsTotal, rehostHelp, obs.L("outcome", outcomeOK)).Inc()
	s.jr.PublishDetail(flight.KindRehostOK, to, from, int64(block), 0)
	return nil
}

// hosts reports whether addr is in the block's replica set.
func (b *blockState[E]) hosts(addr string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.ContainsFunc(b.replicas, func(d *device) bool { return d.addr == addr })
}
