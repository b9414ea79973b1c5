package fleet

import (
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/scec/scec/internal/obs"
)

// Bounded label values (see internal/obs/names.go for the conventions).
const (
	kindVec       = "vec"
	kindMat       = "mat"
	outcomeOK     = "ok"
	outcomeFailed = "failed"
)

// sessionMetrics caches the session's metric handles. Everything is
// registered eagerly at Serve time so a scrape of a freshly provisioned
// fleet already shows every fleet series at zero — an operator can alert on
// the counters existing, not just on them moving.
type sessionMetrics struct {
	reg         *obs.Registry
	hedges      *obs.Counter
	retries     *obs.Counter
	queriesVec  *obs.Counter
	queriesMat  *obs.Counter
	qErrorsVec  *obs.Counter
	qErrorsMat  *obs.Counter
	repairsOK   *obs.Counter
	repairsFail *obs.Counter
}

func (m *sessionMetrics) init(reg *obs.Registry) {
	m.reg = reg
	m.hedges = reg.Counter(obs.MetricFleetHedgesTotal,
		"Speculative (hedged) replica requests launched after the hedge delay elapsed with no verdict.")
	m.retries = reg.Counter(obs.MetricFleetRetriesTotal,
		"Replica attempts launched because a prior attempt failed (in-race failovers and backoff rounds).")
	m.queriesVec = reg.Counter(obs.MetricFleetQueriesTotal,
		"Queries served by the fleet session, by query kind.", obs.L("kind", kindVec))
	m.queriesMat = reg.Counter(obs.MetricFleetQueriesTotal,
		"Queries served by the fleet session, by query kind.", obs.L("kind", kindMat))
	m.qErrorsVec = reg.Counter(obs.MetricFleetQueryErrorsTotal,
		"Queries that failed after exhausting every replica, hedge, and retry, by query kind.", obs.L("kind", kindVec))
	m.qErrorsMat = reg.Counter(obs.MetricFleetQueryErrorsTotal,
		"Queries that failed after exhausting every replica, hedge, and retry, by query kind.", obs.L("kind", kindMat))
	m.repairsOK = reg.Counter(obs.MetricFleetRepairsTotal,
		"Self-repair pushes of a coded block to a warm standby, by outcome.", obs.L("outcome", outcomeOK))
	m.repairsFail = reg.Counter(obs.MetricFleetRepairsTotal,
		"Self-repair pushes of a coded block to a warm standby, by outcome.", obs.L("outcome", outcomeFailed))
}

func (m *sessionMetrics) queries(kind string) *obs.Counter {
	if kind == kindMat {
		return m.queriesMat
	}
	return m.queriesVec
}

func (m *sessionMetrics) queryErrors(kind string) *obs.Counter {
	if kind == kindMat {
		return m.qErrorsMat
	}
	return m.qErrorsVec
}

func (m *sessionMetrics) repairs(outcome string) *obs.Counter {
	if outcome == outcomeFailed {
		return m.repairsFail
	}
	return m.repairsOK
}

// winner returns the per-block histogram of round start → winning answer,
// hedge delay included. The label set is bounded by the scheme's device
// count.
func (m *sessionMetrics) winner(block int) *obs.Histogram {
	return m.reg.Histogram(obs.MetricFleetBlockWinnerSeconds,
		"Time from the start of a block fetch's replica round to its winning answer (hedge delay included), by block index.",
		obs.DefLatencyBuckets, obs.L("block", strconv.Itoa(block)))
}

// latencyWindow is how many latencies a latencyRing retains.
const latencyWindow = 64

// latencyLag is how many samples a latencyRing's sorted copy catches up one
// insertion at a time; further behind, it is rebuilt with one sort.
const latencyLag = 8

// latencyRing keeps a device's last attempt latencies (launch → answer, or a
// lower bound on it; see recordAttempt): its straggler record, and the one
// estimate the gather hedges and ranks replicas by. Observing a sample only
// writes it into the ring, so a block that never reads its estimate — an
// unreplicated one — pays nothing more. Reading refreshes an ascending copy
// of the window at most once per new sample: a binary-search insertion per
// sample since the last read, each with the removal of the sample it
// pushed out of the window, or a sort once more than latencyLag arrived.
// The ring keeps latencyLag samples past the window, so those removals can
// still find what they remove.
type latencyRing struct {
	mu     sync.Mutex
	buf    [latencyWindow + latencyLag]time.Duration // arrival order
	sorted [latencyWindow]time.Duration              // the window as of synced samples, ascending
	seen   int                                       // samples observed
	synced int                                       // samples the sorted copy reflects
}

// MinAdaptiveSamples is how many samples make a device's window its
// estimate: the one trust threshold, read by the router (below it a device
// is priced by the cold prior, see Session.expected) and by the adaptive
// planner (below it a device is nominal).
const MinAdaptiveSamples = 8

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	r.buf[r.seen%len(r.buf)] = d
	r.seen++
	r.mu.Unlock()
}

// warmUp files d only while the ring holds fewer than MinAdaptiveSamples: a
// lower bound may price a device that has no estimate of its own, but never
// moves a measured one.
func (r *latencyRing) warmUp(d time.Duration) {
	r.mu.Lock()
	if r.seen < MinAdaptiveSamples {
		r.buf[r.seen%len(r.buf)] = d
		r.seen++
	}
	r.mu.Unlock()
}

// sync brings the sorted copy up to the window. r.mu is held.
func (r *latencyRing) sync() {
	if r.seen-r.synced > latencyLag {
		n := min(r.seen, latencyWindow)
		for i := range n {
			r.sorted[i] = r.buf[(r.seen-n+i)%len(r.buf)]
		}
		slices.Sort(r.sorted[:n])
		r.synced = r.seen
		return
	}
	for ; r.synced < r.seen; r.synced++ {
		win := r.sorted[:min(r.synced, latencyWindow)]
		if r.synced >= latencyWindow {
			// The sample leaving the window; the latencyLag newer ones
			// have not overwritten it yet.
			i, _ := slices.BinarySearch(win, r.buf[(r.synced-latencyWindow)%len(r.buf)])
			win = slices.Delete(win, i, i+1)
		}
		d := r.buf[r.synced%len(r.buf)]
		i, _ := slices.BinarySearch(win, d)
		win = win[:len(win)+1] // room: len(win) < len(r.sorted) here
		copy(win[i+1:], win[i:])
		win[i] = d
	}
}

// percentiles returns the nearest-rank p50, p95 and p99 of the retained
// latencies (zero when empty) and how many there are, without allocating.
func (r *latencyRing) percentiles() (p50, p95, p99 time.Duration, n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen == 0 {
		return 0, 0, 0, 0
	}
	r.sync()
	win := r.sorted[:min(r.seen, latencyWindow)]
	return nearestRank(win, 0.50), nearestRank(win, 0.95), nearestRank(win, 0.99), len(win)
}

// nearestRank reads the p-quantile of a non-empty ascending sample.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	return sorted[int(p*float64(len(sorted)-1))]
}
