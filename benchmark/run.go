package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/alloc"
	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/obs/flight"
	"github.com/scec/scec/internal/transport"
)

// metricDef names one reported metric and its unit. endToEnd and perLayer
// are the single source of the names this program emits; a test holds them
// equal to the names in BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_us", "us"},
	{"query_p90_us", "us"},
	{"query_qps", "1/s"},
	{"cpu_us_per_query", "us"},
	{"allocs_per_query", "count"},
	{"bytes_per_query", "B"},
}

var perLayer = []metricDef{
	{"scec.query_p50_us", "us"},
	{"scec.query_p99_us", "us"},
	{"scec.first_query_us", "us"},
	{"scec.fail_ratio", "ratio"},
	{"engine.query_us", "us"},
	{"engine.self_us", "us"},
	{"engine.allocs_per_op", "count"},
	{"engine.rounds_per_query", "ratio"},
	{"engine.coalesce_batch_mean", "count"},
	{"fleet.gather_us", "us"},
	{"fleet.self_us", "us"},
	{"fleet.allocs_per_op", "count"},
	{"fleet.attempts_per_block", "ratio"},
	{"fleet.hedges_per_query", "ratio"},
	{"fleet.retries_per_query", "ratio"},
	{"fleet.serve_us", "us"},
	{"transport.gather_us", "us"},
	{"transport.compute_rtt_us", "us"},
	{"transport.ping_rtt_us", "us"},
	{"transport.wire_us", "us"},
	{"transport.frame_us", "us"},
	{"transport.allocs_per_rtt", "count"},
	{"transport.bytes_per_query", "B"},
	{"transport.frames_per_flush", "count"},
	{"transport.store_us", "us"},
	{"matrix.mulvec_sum_us", "us"},
	{"matrix.mulvec_max_us", "us"},
	{"matrix.mulvec_mops", "1/us"},
	{"matrix.mulmat_us", "us"},
	{"matrix.parallel_share", "ratio"},
	{"coding.encode_us", "us"},
	{"coding.decode_us", "us"},
	{"coding.compute_all_us", "us"},
	{"alloc.plan_us", "us"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"obs.journal_publish_ns", "ns"},
	{"bench.slice_spread", "ratio"},
	{"bench.gomaxprocs", "count"},
	{"bench.kernel_pool_size", "count"},
}

// numSlices is fixed: the measured phase is always eight slices, whatever
// their length.
const numSlices = 8

// noisySpread marks a run whose per-slice p50 moved by more than this share
// of its median; the run is still reported, flagged.
const noisySpread = 0.25

// schedule is how long each part of a run lasts. The driver's schedule comes
// from -seconds; the self-test uses a much shorter one.
type schedule struct {
	setups      int // cold set-ups, at least
	maxSetups   int // and at most, while they fit in setupBudget
	setupBudget time.Duration
	audit       bool // run the Definition 2 attack harness on the first set-up
	warmup      time.Duration
	slice       time.Duration // one of the numSlices measured slices
	ladderIters int           // traced run only
	tracedSlice time.Duration // traced run only: tracer-on and tracer-off slices
	journalOps  int           // traced run only
}

// scheduleFor derives a run's schedule from the measuring time. The traced
// run spends half of it on the measured phase (the registry metrics and p99
// come from there) and the rest on the ladder and the tracer-on re-run.
func scheduleFor(s spec, seconds float64, traced bool) schedule {
	d := time.Duration(seconds * float64(time.Second))
	if !traced {
		return schedule{setups: 16, maxSetups: 64, setupBudget: time.Second, warmup: time.Second, slice: d / numSlices}
	}
	return schedule{
		setups: 8, maxSetups: 8, audit: true, warmup: time.Second, slice: d / (2 * numSlices),
		ladderIters: s.ladderIters, tracedSlice: d / 16, journalOps: 200000,
	}
}

// metricValue is one reported number. NA marks a metric the workload's path
// never reaches (its value is then 0).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	NA    bool    `json:"na,omitempty"`
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Noisy     bool                   `json:"noisy"`
	Metrics   map[string]metricValue `json:"metrics"`
	Slices    phase                  `json:"slices"`
	SetupsS   []float64              `json:"setups_s"`
}

// runWorkload runs one workload once: cold set-ups, the closed-loop measured
// phase and, when traced, the ladder and the tracer-on re-run. Operations
// that fail are counted, not fatal; an error return means the harness itself
// could not run (a listener, a plan assertion, the trace file).
func runWorkload(s spec, seed uint64, sch schedule, traced bool, outDir string) (*runResult, error) {
	in := makeInputs(s, seed)
	reg := obs.New()
	res := &runResult{Workload: s.name, Traced: traced}
	var total tally

	// Cold set-ups: fresh servers and fresh connections every time. Shapes
	// that set up in a millisecond get more samples, within setupBudget.
	var setups []setupTimes
	for i, start := 0, time.Now(); i < sch.setups || (i < sch.maxSetups && time.Since(start) < sch.setupBudget); i++ {
		st, t, err := deploy(s, in, seed+uint64(i), reg, nil)
		if err != nil {
			return nil, fmt.Errorf("cold set-up %d: %w", i, err)
		}
		if i == 0 {
			err := checkPlan(s, st.dep)
			if err == nil && sch.audit {
				err = checkSecrecy(st.dep)
			}
			if err != nil {
				st.close()
				return nil, err
			}
		}
		st.close()
		setups = append(setups, t)
		total.add(tally{attempted: 1})
		res.SetupsS = append(res.SetupsS, t.total.Seconds())
	}

	st, _, err := deploy(s, in, seed, reg, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	total.add(tally{attempted: 1})
	lp := newLoop(st.mulVec, in, s.callers)

	// The set-ups leave tens of megabytes of garbage on the large shape;
	// collect it now so the first slices do not pay for it.
	runtime.GC()
	warm := lp.slice(sch.warmup)
	total.add(phase{warm}.tally())
	before := readRegistries(reg, obs.Default())
	res.Slices = lp.measure(numSlices, sch.slice)
	after := readRegistries(reg, obs.Default())

	measured := res.Slices.tally()
	total.add(measured)
	col := func(get func(sliceResult) float64) []float64 { return res.Slices.column(get) }
	p50s := col(func(r sliceResult) float64 { return r.P50us })
	spread := ratio(slices.Max(p50s)-slices.Min(p50s), median(p50s))
	res.Noisy = spread > noisySpread

	values := make(map[string]float64)
	if !traced {
		values["setup_s"] = lowerQuartile(res.SetupsS)
		values["query_p50_us"] = lowerQuartile(p50s)
		values["query_p90_us"] = lowerQuartile(col(func(r sliceResult) float64 { return r.P90us }))
		values["query_qps"] = upperQuartile(col(func(r sliceResult) float64 { return r.QPS }))
		values["cpu_us_per_query"] = lowerQuartile(col(func(r sliceResult) float64 { return r.CPUus }))
		values["allocs_per_query"] = lowerQuartile(col(func(r sliceResult) float64 { return r.Allocs }))
		values["bytes_per_query"] = lowerQuartile(col(func(r sliceResult) float64 { return r.Bytes }))
		res.fill(endToEnd, values, total)
		return res, nil
	}

	values["scec.query_p50_us"] = lowerQuartile(p50s)
	values["scec.query_p99_us"] = lowerQuartile(col(func(r sliceResult) float64 { return r.P99us }))
	values["scec.first_query_us"] = median(columnOf(setups, func(t setupTimes) time.Duration { return t.firstQuery }))
	values["bench.slice_spread"] = spread
	values["bench.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	values["bench.kernel_pool_size"] = float64(matrix.PoolSize())
	registryMetrics(s, regDelta{before, after}, float64(measured.attempted-measured.failed), values)

	if err := setupRungs(s, in, seed, reg, sch.setups, values); err != nil {
		return nil, err
	}
	if !s.local() {
		values["fleet.serve_us"] = median(columnOf(setups, func(t setupTimes) time.Duration { return t.serve }))
	}

	rungs, lt, err := runLadder(s, st, in, reg, sch.ladderIters, outDir)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	total.add(lt)
	for k, v := range rungs {
		values[k] = v
	}

	// Tracing overhead: the same closed loop on a second stack served with a
	// tracer, its slices alternating with untraced ones on the first stack.
	tracer := scec.NewTracer(scec.TracerOptions{Service: "benchmark"})
	tst, _, err := deploy(s, in, seed, reg, tracer)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer tst.close()
	tlp := newLoop(tst.mulVec, in, s.callers)
	total.add(phase{tlp.slice(sch.tracedSlice / 2)}.tally())
	var on, off []float64
	for i := 0; i < 2; i++ {
		a, b := lp.slice(sch.tracedSlice), tlp.slice(sch.tracedSlice)
		total.add(phase{a, b}.tally())
		off, on = append(off, a.P50us), append(on, b.P50us)
	}
	values["obs.trace_overhead_ratio"] = ratio(median(on), median(off))
	values["obs.journal_publish_ns"] = journalPublishNs(sch.journalOps)

	values["scec.fail_ratio"] = ratio(float64(total.failed), float64(total.attempted))
	res.fill(perLayer, values, total)
	return res, nil
}

// fill turns the measured values into the reported metric set: every name in
// defs appears, and one the run has no value for is marked not applicable.
func (r *runResult) fill(defs []metricDef, values map[string]float64, t tally) {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit, NA: !ok}
	}
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.failed == 0
}

// columnOf maps durations out of a slice of records, in µs.
func columnOf[T any](rows []T, get func(T) time.Duration) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = float64(get(r).Nanoseconds()) / 1e3
	}
	return out
}

// registryMetrics derives the per-layer ratios the stack counts about itself
// over the measured phase. queries is the number of verified answers.
func registryMetrics(s spec, d regDelta, queries float64, out map[string]float64) {
	out["engine.rounds_per_query"] = ratio(d.counter(obs.MetricEngineDispatchTotal, "backend", backendOf(s)), queries)
	kernels := d.counter(obs.MetricKernelDispatchTotal)
	out["matrix.parallel_share"] = ratio(d.counter(obs.MetricKernelDispatchTotal, "mode", "parallel"), kernels)
	if s.coalesced() {
		out["engine.coalesce_batch_mean"] = d.histMean(obs.MetricEngineCoalescedBatchSize)
	}
	if s.local() {
		return
	}
	gathers := d.counter(obs.MetricFleetQueriesTotal)
	computes := d.counter(obs.MetricRPCClientRequests, "kind", "compute") +
		d.counter(obs.MetricRPCClientRequests, "kind", "compute-batch")
	out["fleet.attempts_per_block"] = ratio(computes, gathers*float64(s.wantDevices))
	out["fleet.hedges_per_query"] = ratio(d.counter(obs.MetricFleetHedgesTotal), gathers)
	out["fleet.retries_per_query"] = ratio(d.counter(obs.MetricFleetRetriesTotal), gathers)
	out["transport.bytes_per_query"] = ratio(d.counter(obs.MetricRPCClientSent)+d.counter(obs.MetricRPCClientReceived), queries)
	out["transport.frames_per_flush"] = d.histMean(obs.MetricTransportFlushFrames)
}

func backendOf(s spec) string {
	if s.local() {
		return "local"
	}
	return "fleet"
}

// setupRungs times the set-up path's layers one by one through their own
// exported entry points: the allocator, the encoder and the block
// distribution. Each runs n times on fresh state; the medians are reported.
func setupRungs(s spec, in inputs, seed uint64, reg *obs.Registry, n int, out map[string]float64) error {
	f := scec.PrimeField()
	var plan, encode, store []time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		p, err := alloc.TA1(alloc.Instance{M: s.m, Costs: s.costs})
		plan = append(plan, time.Since(start))
		if err != nil {
			return err
		}
		code, err := coding.NewStructured(f, s.m, p.R)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewPCG(seed+uint64(i), 0xe7c0de))
		start = time.Now()
		enc, err := code.Encode(in.a, rng)
		encode = append(encode, time.Since(start))
		if err != nil {
			return err
		}
		if s.local() {
			continue
		}
		servers, addrs, err := startServers(len(enc.Blocks), 1, reg)
		if err != nil {
			return err
		}
		flat := make([]string, len(addrs))
		for j := range addrs {
			flat[j] = addrs[j][0]
		}
		start = time.Now()
		err = transport.Cloud[uint64]{Metrics: reg}.Distribute(context.Background(), flat, enc)
		store = append(store, time.Since(start))
		closeServers(servers)
		if err != nil {
			return err
		}
	}
	ident := func(d time.Duration) time.Duration { return d }
	out["alloc.plan_us"] = median(columnOf(plan, ident))
	out["coding.encode_us"] = median(columnOf(encode, ident))
	if !s.local() {
		out["transport.store_us"] = median(columnOf(store, ident))
	}
	return nil
}

// journalPublishNs is the cost of one flight-recorder publish on a private
// journal, in ns: the observability tax every structural event pays.
func journalPublishNs(ops int) float64 {
	j := flight.New(flight.Options{})
	start := time.Now()
	for i := 0; i < ops; i++ {
		j.Publish(flight.KindRetry, "", int64(i), 0)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}
