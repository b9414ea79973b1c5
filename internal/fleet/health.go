package fleet

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
)

// BreakerState is a device circuit breaker's position. The gauge
// MetricFleetBreakerState exports the numeric value per device.
type BreakerState int

const (
	// BreakerClosed admits requests normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen admits trial requests after a cooldown; one success
	// closes the breaker, one failure re-opens it.
	BreakerHalfOpen
	// BreakerOpen rejects requests until the cooldown elapses.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "invalid"
}

const breakerHelp = "Per-device circuit breaker state: 0 closed, 1 half-open, 2 open."

// device is one physical edge device: an address plus its breaker.
type device struct {
	addr  string
	gauge *obs.Gauge
	// rtt is the per-device round-trip gauge the prober refreshes.
	rtt *obs.Gauge
	// jr receives breaker-transition events (nil-safe).
	jr *flight.Journal

	mu       sync.Mutex
	state    BreakerState
	fails    int       // consecutive failures
	openedAt time.Time // when the breaker last opened
	// block is the one logical block this address is bound to for the whole
	// session (one encoding, one R): set before the first Store attempted
	// toward it and never changed; -1 while nothing has been sent. Def. 2 /
	// Theorem 3 bound what a device learns from one block B_j·T, and a passive
	// device keeps everything it was ever sent, so a second block of the same
	// encoding would hand it [B_i; B_j]·T.
	block int

	// The straggler record: how the device's replica attempts ended, one
	// outcome each (see recordAttempt), and its recent attempt latencies.
	// The counters are atomic so recording an outcome never waits on the
	// breaker lock every race already takes.
	wins, hedgeWins, losses, errors atomic.Int64
	winLat                          latencyRing
}

// attemptOutcome is how one replica attempt ended.
type attemptOutcome uint8

const (
	// attemptWin answered first; its value is the one the race returns.
	attemptWin attemptOutcome = iota
	// attemptLoss answered after another replica won, or was cancelled
	// because its race ended.
	attemptLoss
	// attemptOvertaken is a loss withdrawn unanswered because an attempt
	// launched no earlier won its block: its time so far is a lower bound
	// on its latency.
	attemptOvertaken
	// attemptError failed on its own: a device verdict the breaker counts.
	attemptError
)

// bind ties the device to block for the rest of the session — the fleet's
// one placement rule. It succeeds when the device is unbound or already bound
// to this same block (a re-push of the same rows) and refuses any other.
func (d *device) bind(block int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.block == -1 {
		d.block = block
	}
	return d.block == block
}

// bound returns the block the device is bound to, or -1.
func (d *device) bound() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.block
}

// recordSuccess closes the breaker.
func (d *device) recordSuccess() {
	d.mu.Lock()
	reopened := d.state != BreakerClosed
	d.state = BreakerClosed
	d.fails = 0
	d.gauge.Set(float64(BreakerClosed))
	d.mu.Unlock()
	if reopened {
		d.jr.Publish(flight.KindBreakerClose, d.addr, 0, 0)
	}
}

// recordFailure counts a consecutive failure at now and opens the breaker at
// the threshold (immediately, for a failed half-open trial).
func (d *device) recordFailure(threshold int, now time.Time) {
	d.mu.Lock()
	d.fails++
	opened := false
	if d.state == BreakerHalfOpen || (d.state == BreakerClosed && d.fails >= threshold) {
		d.state = BreakerOpen
		d.openedAt = now
		d.gauge.Set(float64(BreakerOpen))
		opened = true
	}
	fails := d.fails
	d.mu.Unlock()
	if opened {
		d.jr.Publish(flight.KindBreakerOpen, d.addr, int64(fails), 0)
	}
}

// recordAttempt files one finished replica attempt on the straggler record;
// lat, the attempt's own latency, enters the window for a win, and for an
// overtaken loss as the lower bound it is, while the device has no estimate
// of its own: a replica the race keeps outrunning is priced by what it was
// seen to cost, not by a cold prior that may keep winning it the lead. A
// measured device's window keeps to its answers, so the overtaken rounds of
// a leader that sometimes fails cannot push up the p95 it hedges at. It
// writes into storage the device was allocated with, so it allocates
// nothing.
func (d *device) recordAttempt(o attemptOutcome, hedged bool, lat time.Duration) {
	switch o {
	case attemptWin:
		d.winLat.observe(lat)
		d.wins.Add(1)
		if hedged {
			d.hedgeWins.Add(1)
		}
	case attemptOvertaken:
		d.winLat.warmUp(lat)
		d.losses.Add(1)
	case attemptLoss:
		d.losses.Add(1)
	default:
		d.errors.Add(1)
	}
}

// stats snapshots the device's straggler record. Attempts is the sum of the
// outcomes read, so the invariant holds in every snapshot; hedgeWins is read
// before wins, the reverse of recordAttempt's order, so HedgeWins never
// exceeds Wins.
func (d *device) stats() DeviceStats {
	st := DeviceStats{Device: d.addr, HedgeWins: d.hedgeWins.Load(), Wins: d.wins.Load(), Losses: d.losses.Load(), Errors: d.errors.Load()}
	st.Attempts = st.Wins + st.Losses + st.Errors
	st.P50, st.P95, st.P99, st.Samples = d.winLat.percentiles()
	return st
}

// admissible reports whether a request may route to the device now. An open
// breaker past its cooldown transitions to half-open and admits a trial.
func (d *device) admissible(now time.Time, cooldown time.Duration) bool {
	d.mu.Lock()
	halfOpened := false
	admit := true
	switch d.state {
	case BreakerClosed, BreakerHalfOpen:
	default: // BreakerOpen
		if now.Sub(d.openedAt) < cooldown {
			admit = false
			break
		}
		d.state = BreakerHalfOpen
		d.gauge.Set(float64(BreakerHalfOpen))
		halfOpened = true
	}
	d.mu.Unlock()
	if halfOpened {
		d.jr.Publish(flight.KindBreakerHalfOpen, d.addr, 0, 0)
	}
	return admit
}

// admits reports whether admissible would admit the device now, without
// moving its breaker: the read-only view Debug takes.
func (d *device) admits(now time.Time, cooldown time.Duration) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state != BreakerOpen || now.Sub(d.openedAt) >= cooldown
}

// healthy reports whether the breaker is fully closed. Half-open devices are
// suspects: they may serve trials, but they do not count toward a block's
// healthy replica target.
func (d *device) healthy() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state == BreakerClosed
}

// State returns the breaker's current position (exported for tests and the
// CLI's fleet summary).
func (d *device) State() BreakerState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// candidateBuf is the replica-set size a block fetch snapshots into a stack
// array; a larger set spills to the heap.
const candidateBuf = 4

// candidates snapshots the block's replica set in routing order: closed
// breakers first (provisioning order, which rank then refines), then
// half-open and cooled-down-open devices as trial fallbacks. Devices inside
// an open breaker's cooldown are excluded entirely; healthy counts the closed
// breakers at the front. The snapshot is appended to buf[:0], a caller's
// stack array, so it allocates only for a replica set larger than buf's
// capacity.
func (b *blockState[E]) candidates(now time.Time, cooldown time.Duration, buf []*device) (out []*device, healthy int) {
	b.mu.Lock()
	out = append(buf[:0], b.replicas...)
	b.mu.Unlock()
	// Stable partition inside the copy: out[:h] are the healthy devices and
	// out[h:t] the trials seen so far, t never ahead of the read index. Each
	// device is classified once (admissible moves an open breaker to
	// half-open, so it must not be asked twice).
	h, t := 0, 0
	for _, d := range out {
		switch {
		case d.healthy():
			copy(out[h+1:t+1], out[h:t])
			out[h] = d
			h++
			t++
		case d.admissible(now, cooldown):
			out[t] = d
			t++
		}
	}
	return out[:t], h
}

// coldRTTs prices a device that has not yet won MinAdaptiveSamples races:
// one round trip for the request and its answer, and one more for the
// device's compute, which has not been seen yet.
const coldRTTs = 2

// estimate is a device's expected attempt latency (launch → answer).
type estimate struct {
	p50, p95 time.Duration
	warm     bool // measured: the device's own window, not the cold prior
}

// expected estimates d from its straggler record: the p50 and p95 of its
// window — its wins, and the overtaken losses that warmed it — once it holds
// MinAdaptiveSamples, and until then a prior for both of coldRTTs times its
// connection's last measured round trip — the handshake at dial, or a
// probe ping since — or RPCTimeout when there is none.
func (s *Session[E]) expected(d *device) estimate {
	if p50, p95, _, n := d.winLat.percentiles(); n >= MinAdaptiveSamples {
		return estimate{p50, p95, true}
	}
	prior := s.cfg.RPCTimeout
	if rtt, ok := s.link.LastRTT(d.addr); ok {
		prior = coldRTTs * rtt
	}
	return estimate{p50: prior, p95: prior}
}

// rank orders ds, a block's closed-breaker replicas in provisioning order,
// by expected completion — each one's p50, ties kept in order — and returns
// the estimate of the one it puts first. The provisioning-order leader keeps
// the lead until its own measured p50 exceeds a peer's p95: balanced
// replicas never trade the lead on noise, and a leader still on its prior
// is not demoted by a guess. ds must not be empty.
func (s *Session[E]) rank(ds []*device) estimate {
	var buf [candidateBuf]estimate
	est := buf[:0]
	for _, d := range ds {
		est = append(est, s.expected(d))
	}
	from := 1 // the first index the sort may move
	if est[0].warm && slices.ContainsFunc(est[1:], func(e estimate) bool { return est[0].p50 > e.p95 }) {
		from = 0
	}
	for i := from + 1; i < len(ds); i++ {
		for k := i; k > from && est[k].p50 < est[k-1].p50; k-- {
			ds[k], ds[k-1] = ds[k-1], ds[k]
			est[k], est[k-1] = est[k-1], est[k]
		}
	}
	return est[0]
}

// hedgeDelay resolves a round's speculative-request delay from its leader's
// estimate: the configured fixed value, or — when adaptive — the leader's
// p95, clamped to [1ms, RPCTimeout]. ok is false when a negative HedgeAfter
// disables hedging.
func (s *Session[E]) hedgeDelay(lead estimate) (d time.Duration, ok bool) {
	switch {
	case s.cfg.HedgeAfter > 0:
		return s.cfg.HedgeAfter, true
	case s.cfg.HedgeAfter < 0:
		return 0, false
	}
	return min(max(lead.p95, time.Millisecond), s.cfg.RPCTimeout), true
}

// probeLoop pings the whole physical fleet (replicas and standbys) every
// ProbeInterval, feeding the breakers — so dead devices stop receiving
// queries even between queries, and recovered devices are noticed — and
// triggering self-repair of degraded blocks.
func (s *Session[E]) probeLoop() {
	defer s.wg.Done()
	var t *time.Timer
	for next := s.clk.Now(); ; {
		// A ticker's fixed rate: each deadline counts from the last, not
		// from the end of the round; a round that overruns it probes again.
		if next = next.Add(s.cfg.ProbeInterval); next.Before(s.clk.Now()) {
			next = s.clk.Now()
		}
		select {
		case <-s.ctx.Done():
			t.Stop()
			return
		case <-s.clk.wait(next, &t):
			s.probeOnce()
		}
	}
}

// probeOnce pings every device concurrently and then runs the repair check.
func (s *Session[E]) probeOnce() {
	s.devMu.Lock()
	devices := make([]*device, 0, len(s.devices))
	for _, d := range s.devices {
		devices = append(devices, d)
	}
	s.devMu.Unlock()
	var wg sync.WaitGroup
	for _, d := range devices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Piggyback on the persistent connection's traffic: a device
			// heard from within the probe period (a response frame on its
			// pooled v4 connection) is demonstrably alive, so skip the
			// explicit ping RPC. An idle connection gets the ping, which
			// also keeps the device's idle deadline from cutting it.
			// Export the multiplexed connection's latest RTT so /metrics
			// carries the same per-device signal the adaptive planner
			// prices the network by.
			if rtt, ok := s.link.LastRTT(d.addr); ok {
				d.rtt.Set(rtt.Seconds())
			}
			if t, ok := s.link.LastContact(d.addr); ok && s.clk.Now().Sub(t) < s.cfg.ProbeInterval {
				d.recordSuccess()
				return
			}
			ctx, cancel := context.WithTimeout(s.ctx, DefaultProbeTimeout)
			defer cancel()
			err := s.link.Ping(ctx, d.addr)
			switch {
			case err == nil:
				d.recordSuccess()
			case s.ctx.Err() != nil:
				// Session shutdown, not a device verdict.
			default:
				d.recordFailure(s.cfg.BreakerThreshold, s.clk.Now())
			}
		}()
	}
	wg.Wait()
	if !s.cfg.DisableRepair {
		s.checkRepairs()
	}
}
