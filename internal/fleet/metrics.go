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

// winner returns the per-block winner-latency histogram. The label set is
// bounded by the scheme's device count.
func (m *sessionMetrics) winner(block int) *obs.Histogram {
	return m.reg.Histogram(obs.MetricFleetBlockWinnerSeconds,
		"Latency of the winning replica attempt per served block fetch, by block index.",
		obs.DefLatencyBuckets, obs.L("block", strconv.Itoa(block)))
}

// latencyWindow is how many latencies a latencyRing retains.
const latencyWindow = 64

// latencyRing keeps the last winner latencies: the session's for the
// adaptive hedge delay, and each device's for its straggler record.
type latencyRing struct {
	mu   sync.Mutex
	buf  [latencyWindow]time.Duration
	n    int // filled entries
	next int // write cursor
}

// minAdaptiveSamples gates the adaptive hedge delay: below this, hedging
// falls back to DefaultHedgeAfter instead of trusting a tiny sample.
const minAdaptiveSamples = 8

func newLatencyRing() *latencyRing { return &latencyRing{} }

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	r.buf[r.next] = d
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// sorted copies the retained latencies into dst, ascending, and returns how
// many there are. dst is the caller's stack array, so reading a percentile
// allocates nothing; returning the array by value instead doubles the
// caller's frame.
func (r *latencyRing) sorted(dst *[latencyWindow]time.Duration) int {
	r.mu.Lock()
	n := r.n
	*dst = r.buf
	r.mu.Unlock()
	slices.Sort(dst[:n])
	return n
}

// percentile returns the p-quantile of the retained latencies; ok is false
// until minAdaptiveSamples observations accumulated.
func (r *latencyRing) percentile(p float64) (time.Duration, bool) {
	var tmp [latencyWindow]time.Duration
	n := r.sorted(&tmp)
	if n < minAdaptiveSamples {
		return 0, false
	}
	return nearestRank(tmp[:n], p), true
}

// nearestRank reads the p-quantile of a non-empty ascending sample.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	return sorted[int(p*float64(len(sorted)-1))]
}
