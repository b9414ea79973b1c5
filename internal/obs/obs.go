// Package obs is the repository's zero-dependency telemetry layer: atomic
// counters, float gauges, fixed-bucket histograms, and lightweight stage
// span timers, collected in a Registry that renders both Prometheus text
// exposition and JSON snapshots and serves an optional net/http handler
// bundle (/metrics, /healthz, /debug/pprof/*, /debug/vars).
//
// The repo is deliberately dependency-free, so everything here is standard
// library only. All metric updates are lock-free atomics. Get-or-create of
// a named series is cheap enough to call on every update: a lookup of an
// existing series is two read-locked map hits and no allocation (the label
// key is rendered into a stack buffer), and the write locks are taken once
// per family and once per series, to register them.
//
// Real runs (internal/transport) and simulated runs (internal/sim) record
// the same metric names — see names.go — so a Prometheus scrape of a live
// fleet and the JSON snapshot of a virtual-clock simulation are directly
// comparable.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram (Prometheus semantics:
// each bucket counts observations ≤ its upper bound, plus an implicit +Inf
// bucket). Buckets are fixed at registration; observations are atomic.
type Histogram struct {
	bounds  []float64      // ascending upper bounds, +Inf implicit
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf overflow
	ex      []atomic.Pointer[Exemplar]
	total   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
		ex:     make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Exemplar links one histogram bucket to the concrete request that last
// landed in it: the trace ID to pull from /debug/traces/{id} and the device
// that served it. Each bucket retains only its most recent exemplar, so a
// p99 spike always points at a live, representative trace.
type Exemplar struct {
	// Value is the observed value in the histogram's unit.
	Value float64 `json:"value"`
	// TraceID is the W3C trace identifier of the observation, if traced.
	TraceID string `json:"trace_id,omitempty"`
	// Device is the serving device address, if attributable.
	Device string `json:"device,omitempty"`
	// AtUnixNano is the wall-clock capture time.
	AtUnixNano int64 `json:"at_ns"`
}

// BucketExemplar is one bucket's retained exemplar in an export, tagged
// with the bucket's upper bound (same LE rendering as BucketCount).
type BucketExemplar struct {
	LE string `json:"le"`
	Exemplar
}

// exemplarRefresh is the age at which untraced traffic may replace a
// bucket's exemplar.
const exemplarRefresh = time.Second

// ObserveExemplar is Observe plus exemplar retention. A traced observation
// (non-empty traceID) replaces its bucket's exemplar at once. An untraced
// observation that names a device fills a bucket with no exemplar, and
// otherwise replaces the bucket's exemplar only once that is
// exemplarRefresh old, traced or not. So every hit bucket names a device,
// a traced exemplar stays at least exemplarRefresh before untraced traffic
// evicts it, and steady untraced traffic allocates at most one exemplar per
// bucket per exemplarRefresh instead of one per observation. An
// observation with neither a trace ID nor a device is plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID, device string) {
	h.Observe(v)
	if traceID == "" && device == "" {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	now := time.Now().UnixNano()
	if traceID == "" {
		if e := h.ex[i].Load(); e != nil && now-e.AtUnixNano < int64(exemplarRefresh) {
			return
		}
	}
	h.ex[i].Store(&Exemplar{Value: v, TraceID: traceID, Device: device, AtUnixNano: now})
}

// ObserveDurationExemplar records a duration in seconds with an exemplar.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, traceID, device string) {
	h.ObserveExemplar(d.Seconds(), traceID, device)
}

// Exemplars returns the buckets that have retained an exemplar, in bound
// order (the +Inf overflow bucket renders as "+Inf").
func (h *Histogram) Exemplars() []BucketExemplar {
	var out []BucketExemplar
	for i := range h.ex {
		e := h.ex[i].Load()
		if e == nil {
			continue
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		out = append(out, BucketExemplar{LE: le, Exemplar: *e})
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds (the unit every *_seconds
// histogram in this repo uses).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile returns the interpolated q-quantile (q in [0, 1]) of the
// observations, Prometheus histogram_quantile-style: the target rank q·count
// is located in the cumulative buckets and the value is interpolated
// linearly within the containing bucket (observations are assumed
// non-negative, so the first bucket interpolates from zero). When the rank
// lands in the +Inf overflow bucket the highest finite bound is returned.
// Returns NaN when the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.total.Load()
	if n == 0 || len(h.bounds) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(n)
	var cum int64
	for i, bound := range h.bounds {
		c := h.counts[i].Load()
		if float64(cum+c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if c == 0 {
				return bound
			}
			return lower + (bound-lower)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Tails is the interpolated tail summary of one histogram series, in the
// histogram's unit (seconds for every *_seconds family in this repo).
type Tails struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// Tails returns the p50/p95/p99 summary and whether the histogram has any
// observations to summarize.
func (h *Histogram) Tails() (Tails, bool) {
	if h.Count() == 0 {
		return Tails{}, false
	}
	return Tails{P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99)}, true
}

// DefLatencyBuckets spans 100µs to 10s, the range of interest for both RPC
// round trips on loopback/LAN fleets and virtual-clock stage durations.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labelled instance of a metric family; exactly one of the
// three value fields is non-nil, matching the family type.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups every series sharing a metric name.
type family struct {
	name    string
	help    string
	typ     metricType
	buckets []float64

	mu     sync.RWMutex
	series map[string]*series
	order  []string
}

// get returns the series for labels, registering it on first use.
func (f *family) get(labels []Label) *series {
	if s := f.find(labels); s != nil {
		return s
	}
	return f.register(labels)
}

// find returns the series for labels if it exists, without creating it. It
// is the path every bump of an existing series takes: a read-locked map hit
// keyed by a stack-rendered key, so it allocates nothing and readers never
// serialize.
func (f *family) find(labels []Label) *series {
	var buf [keyBufSize]byte
	key := appendKey(buf[:0], labels)
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.series[string(key)]
}

// register mints the series under the write lock, unless a concurrent first
// touch got there first.
func (f *family) register(labels []Label) *series {
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sortLabels(ls)
	key := string(appendKey(nil, ls))
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: ls}
	switch f.typ {
	case typeCounter:
		s.counter = &Counter{}
	case typeGauge:
		s.gauge = &Gauge{}
	case typeHistogram:
		s.hist = newHistogram(f.buckets)
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Stack sizes of the key renderer: a label set with more labels, or a longer
// rendered key, falls back to the heap. Every series this repo records has
// at most three short labels.
const (
	keyBufSize     = 256
	keyStackLabels = 8
)

// sortLabels orders ls by key. Label sets are a handful of entries, so an
// insertion sort is the fast path, and it needs no closure or reflection
// swapper, so it allocates nothing.
func sortLabels(ls []Label) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j].Key < ls[j-1].Key; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}

// appendKey appends the canonical series key of labels to dst: "k=v" pairs
// in key order, comma-separated. labels is not modified and does not escape.
func appendKey(dst []byte, labels []Label) []byte {
	var stack [keyStackLabels]Label
	ls := stack[:0]
	if len(labels) > len(stack) {
		ls = make([]Label, 0, len(labels))
	}
	ls = append(ls, labels...)
	sortLabels(ls)
	for i, l := range ls {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.Key...)
		dst = append(dst, '=')
		dst = append(dst, l.Value...)
	}
	return dst
}

// Registry holds named metric families. The zero value is not usable; call
// New (or use Default for the process-wide registry).
type Registry struct {
	start time.Time

	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{start: time.Now(), families: make(map[string]*family)}
}

var std = New()

// Default returns the process-wide registry. The façade (package scec), the
// transport, and the simulator all record here unless explicitly given
// another registry, so one /metrics endpoint sees the whole stack.
func Default() *Registry { return std }

func (r *Registry) family(name, help string, t metricType, buckets []float64) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.families[name]; f == nil {
			f = &family{name: name, help: help, typ: t, buckets: buckets, series: make(map[string]*series)}
			r.families[name] = f
			r.order = append(r.order, name)
		}
		r.mu.Unlock()
	}
	if f.typ != t {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, t))
	}
	return f
}

// Counter returns the counter series for name+labels, creating it on first
// use. help is recorded on first registration of the family.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.family(name, help, typeCounter, nil).get(labels).counter
}

// Gauge returns the gauge series for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.family(name, help, typeGauge, nil).get(labels).gauge
}

// Histogram returns the histogram series for name+labels, creating it on
// first use. buckets applies on first registration of the family; later
// calls reuse the registered layout.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.family(name, help, typeHistogram, buckets).get(labels).hist
}

// find returns the series for name+labels if it exists, without creating
// it (reads must not mint empty series into the export).
func (r *Registry) find(name string, labels []Label) *series {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		return nil
	}
	return f.find(labels)
}

// Uptime reports how long the registry has existed.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }

// visit walks families and series in registration order under the locks.
func (r *Registry) visit(fn func(f *family, s *series)) {
	r.mu.RLock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.RLock()
		keys := make([]string, len(f.order))
		copy(keys, f.order)
		ss := make([]*series, len(keys))
		for i, k := range keys {
			ss[i] = f.series[k]
		}
		f.mu.RUnlock()
		for _, s := range ss {
			fn(f, s)
		}
	}
}
