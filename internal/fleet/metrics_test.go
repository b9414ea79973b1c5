package fleet

import (
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/scec/scec/internal/faultproxy"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/testenv"
)

// TestFleetMetricsEagerlyRegistered: a scrape of a freshly provisioned
// session already shows every fleet counter at zero and one breaker gauge
// per physical device — before any query runs.
func TestFleetMetricsEagerlyRegistered(t *testing.T) {
	env := newTestEnv(t, 2, 1)
	env.serve(t)
	var b strings.Builder
	if err := env.reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP " + obs.MetricFleetQueriesTotal,
		"# TYPE " + obs.MetricFleetQueriesTotal + " counter",
		obs.MetricFleetQueriesTotal + `{kind="vec"} 0`,
		obs.MetricFleetQueriesTotal + `{kind="mat"} 0`,
		obs.MetricFleetQueryErrorsTotal + `{kind="vec"} 0`,
		obs.MetricFleetHedgesTotal + " 0",
		obs.MetricFleetRetriesTotal + " 0",
		obs.MetricFleetRepairsTotal + `{outcome="ok"} 0`,
		obs.MetricFleetRepairsTotal + `{outcome="failed"} 0`,
		"# TYPE " + obs.MetricFleetBreakerState + " gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
	devices := 2*env.scheme.Devices() + 1
	if got := strings.Count(out, obs.MetricFleetBreakerState+"{device="); got != devices {
		t.Fatalf("breaker gauge has %d device series, want %d", got, devices)
	}
}

// TestFleetMetricsBoundedCardinality drives vec and mat queries (including a
// failover) and checks every fleet metric stays inside its fixed label sets:
// kind ∈ {vec, mat}, outcome ∈ {ok, failed}, device ∈ the configured fleet,
// block ∈ [0, devices) — no matter how many queries run.
func TestFleetMetricsBoundedCardinality(t *testing.T) {
	env := newTestEnv(t, 2, 0)
	s := env.serve(t)
	env.proxies[2][0].SetMode(faultproxy.Drop) // exercise the failover counter too

	rng := rand.New(rand.NewPCG(8, 9))
	xm := matrix.New[uint64](env.a.Cols(), 2)
	for i := 0; i < xm.Rows(); i++ {
		for j := 0; j < 2; j++ {
			xm.Set(i, j, env.f.Rand(rng))
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := mulVec(s, env.x); err != nil {
			t.Fatal(err)
		}
		if _, err := gatherBatch(s, xm); err != nil {
			t.Fatal(err)
		}
	}

	addrs := make(map[string]bool)
	for _, group := range env.cfg.Replicas {
		for _, a := range group {
			addrs[a] = true
		}
	}
	snap := env.reg.Snapshot()
	seen := make(map[string]bool)
	for _, fam := range snap.Metrics {
		switch fam.Name {
		case obs.MetricFleetQueriesTotal, obs.MetricFleetQueryErrorsTotal:
			seen[fam.Name] = true
			if len(fam.Series) > 2 {
				t.Fatalf("%s has %d series, want <= 2 (vec, mat)", fam.Name, len(fam.Series))
			}
			for _, sr := range fam.Series {
				if k := sr.Labels["kind"]; k != kindVec && k != kindMat {
					t.Fatalf("%s label kind=%q outside the bounded set", fam.Name, k)
				}
			}
		case obs.MetricFleetRepairsTotal:
			seen[fam.Name] = true
			for _, sr := range fam.Series {
				if o := sr.Labels["outcome"]; o != outcomeOK && o != outcomeFailed {
					t.Fatalf("repairs label outcome=%q outside the bounded set", o)
				}
			}
		case obs.MetricFleetBreakerState:
			seen[fam.Name] = true
			if len(fam.Series) > len(addrs) {
				t.Fatalf("breaker gauge has %d series for %d devices", len(fam.Series), len(addrs))
			}
			for _, sr := range fam.Series {
				if !addrs[sr.Labels["device"]] {
					t.Fatalf("breaker gauge for unknown device %q", sr.Labels["device"])
				}
			}
		case obs.MetricFleetBlockWinnerSeconds:
			seen[fam.Name] = true
			if len(fam.Series) > env.scheme.Devices() {
				t.Fatalf("winner histogram has %d series for %d blocks", len(fam.Series), env.scheme.Devices())
			}
			for _, sr := range fam.Series {
				j, err := strconv.Atoi(sr.Labels["block"])
				if err != nil || j < 0 || j >= env.scheme.Devices() {
					t.Fatalf("winner histogram label block=%q outside [0, %d)", sr.Labels["block"], env.scheme.Devices())
				}
			}
		case obs.MetricFleetRetriesTotal:
			seen[fam.Name] = true
			// Failovers run until the dead replica's breaker opens at the
			// threshold; after that, queries route straight to the healthy one.
			if fam.Series[0].Value < float64(DefaultBreakerThreshold) {
				t.Fatalf("retries total = %g, want >= %d", fam.Series[0].Value, DefaultBreakerThreshold)
			}
		case obs.MetricFleetHedgesTotal:
			seen[fam.Name] = true
		}
	}
	for _, name := range []string{
		obs.MetricFleetQueriesTotal, obs.MetricFleetQueryErrorsTotal,
		obs.MetricFleetHedgesTotal, obs.MetricFleetRetriesTotal,
		obs.MetricFleetRepairsTotal, obs.MetricFleetBreakerState,
		obs.MetricFleetBlockWinnerSeconds,
	} {
		if !seen[name] {
			t.Fatalf("fleet metric %s missing from registry", name)
		}
	}
	// The per-query vec counter must track exactly.
	if v := counterValue(t, env.reg, obs.MetricFleetQueriesTotal, map[string]string{"kind": kindVec}); v != 4 {
		t.Fatalf("vec queries = %g, want 4", v)
	}
}

// TestLatencyRingPercentileMatchesReference replays random observation
// sequences — empty, partly filled, and wrapped around the 64-entry ring
// several times — against a sort-based reference over the last 64
// observations, reading the percentiles after random stretches of samples
// — shorter than latencyLag, caught up one insertion at a time, and longer,
// rebuilt by a sort — so a sorted copy that mishandled an insert or an
// eviction would read wrong.
func TestLatencyRingPercentileMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2))
	for trial := 0; trial < 200; trial++ {
		r := &latencyRing{}
		var seen []time.Duration
		gap := 1 + rng.IntN(4*latencyLag) // mean samples between reads
		for i, n := 0, rng.IntN(4*latencyWindow); i <= n; i++ {
			if rng.IntN(gap) == 0 || i == n {
				last := seen[max(0, len(seen)-latencyWindow):]
				p50, p95, p99, got := r.percentiles()
				if got != len(last) {
					t.Fatalf("trial %d: %d samples, want %d", trial, got, len(last))
				}
				if len(last) == 0 {
					if p50 != 0 || p95 != 0 || p99 != 0 {
						t.Fatalf("trial %d: empty window reads %v %v %v", trial, p50, p95, p99)
					}
					continue
				}
				ref := append([]time.Duration(nil), last...)
				sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
				for k, p := range []float64{0.5, 0.95, 0.99} {
					if want := ref[int(p*float64(len(ref)-1))]; [3]time.Duration{p50, p95, p99}[k] != want {
						t.Fatalf("trial %d: p%g of %d samples = %v, want %v", trial, p*100, len(ref), [3]time.Duration{p50, p95, p99}[k], want)
					}
				}
			}
			if i < n {
				d := time.Duration(rng.IntN(50)) * time.Millisecond // ties included
				r.observe(d)
				seen = append(seen, d)
			}
		}
	}
}

// TestLatencyRingPercentileAllocs: every replicated block reads its
// replicas' percentiles once per round and every win files a sample, so
// neither may allocate. It fails if the ring goes back to a heap copy or a
// reflection-based sort.
func TestLatencyRingPercentileAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	r := &latencyRing{}
	fillLatencyRing(r)
	if n := testing.AllocsPerRun(100, func() {
		r.observe(time.Millisecond)
		r.percentiles()
		r.percentiles()
	}); n != 0 {
		t.Fatalf("percentiles = %g allocs, want 0", n)
	}
}

// TestRecordAttemptAllocs: every replica attempt files its outcome on its
// device's straggler record on the query path, so recording one must not
// allocate. It fails if the record grows a heap-backed window or a map.
func TestRecordAttemptAllocs(t *testing.T) {
	testenv.SkipAllocsUnderRace(t)
	d := &device{addr: "d"}
	if n := testing.AllocsPerRun(100, func() {
		d.recordAttempt(attemptWin, true, time.Millisecond)
		d.recordAttempt(attemptLoss, false, 0)
		d.recordAttempt(attemptOvertaken, false, time.Millisecond)
		d.recordAttempt(attemptError, false, 0)
	}); n != 0 {
		t.Fatalf("recordAttempt = %g allocs, want 0", n)
	}
}

// fillLatencyRing fills r's window with random sub-millisecond latencies.
func fillLatencyRing(r *latencyRing) {
	rng := rand.New(rand.NewPCG(15, 3))
	for range latencyWindow {
		r.observe(time.Duration(rng.IntN(1000)) * time.Microsecond)
	}
}

// hedgeSink keeps BenchmarkRankReplicas' result live.
var hedgeSink time.Duration

// BenchmarkRankReplicas prices what a replicated block's round reads before
// it launches: ranking two replicas and resolving the leader's hedge delay.
// "observe" also files a win on the leader each round, as a served round
// does; "read" only reads; both rank two warm replicas over a stub link.
// "served-cold-peer" ranks a served block's warm leader and cold peer, so
// the peer's prior reads the transport pool's LastRTT each round.
func BenchmarkRankReplicas(b *testing.B) {
	for _, fresh := range []bool{true, false} {
		b.Run(map[bool]string{true: "observe", false: "read"}[fresh], func(b *testing.B) {
			s := &Session[uint64]{link: rttLink{}, cfg: Config{RPCTimeout: time.Second}}
			d0, d1 := &device{addr: "a"}, &device{addr: "b"}
			fillLatencyRing(&d0.winLat)
			fillLatencyRing(&d1.winLat)
			ds := make([]*device, 2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if fresh {
					d0.recordAttempt(attemptWin, false, time.Duration(i%1000)*time.Microsecond)
				}
				ds[0], ds[1] = d0, d1
				hedgeSink, _ = s.hedgeDelay(s.rank(ds))
			}
		})
	}
	b.Run("served-cold-peer", func(b *testing.B) {
		env := newTestEnv(b, 2, 0)
		s := env.serve(b)
		if _, err := mulVec(s, env.x); err != nil { // dials every replica
			b.Fatal(err)
		}
		d0, d1 := s.devices[env.cfg.Replicas[0][0]], s.devices[env.cfg.Replicas[0][1]]
		fillLatencyRing(&d0.winLat)
		if _, ok := s.link.LastRTT(d1.addr); !ok || s.expected(d1).warm {
			b.Fatal("the peer is not a cold replica with a measured round trip")
		}
		ds := make([]*device, 2)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d0.recordAttempt(attemptWin, false, time.Duration(i%1000)*time.Microsecond)
			ds[0], ds[1] = d0, d1
			hedgeSink, _ = s.hedgeDelay(s.rank(ds))
		}
	})
}
