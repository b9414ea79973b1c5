package fleet

import (
	"context"
	"slices"

	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
)

// checkRepairs scans every block after a probe round and starts a background
// repair for each one whose healthy replica count fell below its provisioned
// target, while a healthy standby is available. At most one repair per block
// runs at a time.
func (s *Session[E]) checkRepairs() {
	for _, b := range s.blocks {
		b.mu.Lock()
		healthy := 0
		for _, d := range b.replicas {
			if d.healthy() {
				healthy++
			}
		}
		start := healthy < b.target && !b.repairing
		if start {
			b.repairing = true
		}
		b.mu.Unlock()
		if !start {
			continue
		}
		sb := s.takeStandby(b.index)
		if sb == nil {
			b.mu.Lock()
			b.repairing = false
			b.mu.Unlock()
			continue
		}
		s.wg.Add(1)
		go s.repair(b, sb)
	}
}

// repair promotes the standby into the block's replica set. A failed push
// leaves it in the pool — still bound to this block — for a later attempt.
func (s *Session[E]) repair(b *blockState[E], sb *device) {
	defer s.wg.Done()
	err := s.promote(context.Background(), b, sb, "")
	b.mu.Lock()
	b.repairing = false
	b.mu.Unlock()
	if err != nil {
		s.met.repairs(outcomeFailed).Inc()
		s.jr.PublishDetail(flight.KindRepairFailed, sb.addr, err.Error(), int64(b.index), 0)
		return
	}
	s.met.repairs(outcomeOK).Inc()
	s.jr.Publish(flight.KindRepairOK, sb.addr, int64(b.index), 0)
}

// promote is the one way a device joins a replica set after provisioning,
// shared by self-repair and Rehost: push the block's retained coded rows to d
// — which the caller has already bound to b, so its lifetime view stays
// exactly L(B_j) (Def. 2) without a re-encode — and on success add it to the
// replica set, taking `from` (if any) out in the same critical section and
// back into the standby pool. A failed push counts against d's breaker and
// returns it to the pool. The push is bounded by ctx, the session lifetime,
// and the RPC timeout.
func (s *Session[E]) promote(ctx context.Context, b *blockState[E], d *device, from string) error {
	push, cancel := context.WithTimeout(s.ctx, s.cfg.RPCTimeout)
	defer cancel()
	defer context.AfterFunc(ctx, cancel)()
	start := s.clk.Now()
	err := s.link.Store(push, d.addr, b.rows)
	obs.ObserveStage(s.reg, obs.StageStore, s.clk.Now().Sub(start)) // a promotion re-runs the pipeline's store stage
	if err != nil {
		if s.ctx.Err() == nil {
			d.recordFailure(s.cfg.BreakerThreshold, s.clk.Now())
		}
		s.returnStandby(d)
		return err
	}
	d.recordSuccess()
	var vacated *device
	b.mu.Lock()
	b.replicas = append(b.replicas, d)
	if i := slices.IndexFunc(b.replicas, func(r *device) bool { return r.addr == from }); i >= 0 {
		vacated = b.replicas[i]
		b.replicas = slices.Delete(b.replicas, i, i+1)
	}
	b.mu.Unlock()
	if vacated != nil {
		s.returnStandby(vacated)
	}
	return nil
}

// takeStandby pops the first healthy standby that may hold block — unbound,
// or bound to it by an earlier promotion — binding it.
func (s *Session[E]) takeStandby(block int) *device {
	s.standbyMu.Lock()
	defer s.standbyMu.Unlock()
	for i, d := range s.standbys {
		if d.healthy() && d.bind(block) {
			s.standbys = slices.Delete(s.standbys, i, i+1)
			return d
		}
	}
	return nil
}

// returnStandby puts a device into the standby pool: a failed promotion, or
// a host a rehost vacated.
func (s *Session[E]) returnStandby(d *device) {
	s.standbyMu.Lock()
	s.standbys = append(s.standbys, d)
	s.standbyMu.Unlock()
}

// Standbys reports how many unpromoted standbys remain.
func (s *Session[E]) Standbys() int {
	s.standbyMu.Lock()
	defer s.standbyMu.Unlock()
	return len(s.standbys)
}

// ReplicaCount reports block j's current replica-set size (provisioned
// replicas plus promoted standbys), for operators and tests.
func (s *Session[E]) ReplicaCount(j int) int {
	b := s.blocks[j]
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.replicas)
}
