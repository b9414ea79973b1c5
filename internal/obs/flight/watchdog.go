package flight

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/scec/scec/internal/obs"
)

// Rule is one declarative incident trigger evaluated by the watchdog each
// tick. Fired returns whether the rule is in violation right now, plus a
// short human-readable detail for the incident metadata.
type Rule interface {
	// Name is the rule's stable identity (the grammar form it parses from),
	// used for rate-limit bookkeeping and incident labelling.
	Name() string
	// Fired evaluates the rule against the watchdog's journal and registry.
	Fired(w *Watchdog) (bool, string)
}

// JournalRule fires when at least Count events of the given Kind were
// published within the trailing Within window (on the journal's clock).
// Grammar form: "journal:<kind>>=<count>/<window>".
type JournalRule struct {
	Kind   Kind
	Count  int
	Within time.Duration
}

// Name renders the rule in grammar form.
func (r JournalRule) Name() string {
	return fmt.Sprintf("journal:%s>=%d/%s", r.Kind, r.Count, r.Within)
}

// Fired reports whether the journal holds enough matching recent events.
func (r JournalRule) Fired(w *Watchdog) (bool, string) {
	j := w.cfg.Journal
	cutoff := j.Now() - r.Within.Nanoseconds()
	n := j.CountSince(r.Kind, cutoff)
	if n < r.Count {
		return false, ""
	}
	return true, fmt.Sprintf("%d %s events in %s (threshold %d)", n, r.Kind, r.Within, r.Count)
}

// CounterRule fires when a counter family's summed value rises by at least
// Delta within the trailing Within window. The rule keeps its own sample
// history, so it must not be shared between watchdogs.
// Grammar form: "counter:<metric>>=<delta>/<window>".
type CounterRule struct {
	Metric string
	Delta  float64
	Within time.Duration

	mu      sync.Mutex
	samples []counterSample
}

type counterSample struct {
	at    time.Time
	total float64
}

// Name renders the rule in grammar form.
func (r *CounterRule) Name() string {
	return fmt.Sprintf("counter:%s>=%s/%s", r.Metric, strconv.FormatFloat(r.Delta, 'g', -1, 64), r.Within)
}

// Fired samples the family total and compares it against the oldest sample
// still inside the window.
func (r *CounterRule) Fired(w *Watchdog) (bool, string) {
	now := time.Now()
	total := familyTotal(w.cfg.Metrics, r.Metric)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, counterSample{at: now, total: total})
	// Drop samples older than the window, but keep one sample at or beyond
	// its far edge as the comparison baseline.
	for len(r.samples) > 1 && now.Sub(r.samples[1].at) >= r.Within {
		r.samples = r.samples[1:]
	}
	base := r.samples[0]
	if now.Sub(base.at) < r.Within/4 {
		// Not enough history to judge a window yet.
		return false, ""
	}
	if rise := total - base.total; rise >= r.Delta {
		return true, fmt.Sprintf("%s rose by %g in %s (threshold %g)", r.Metric, rise, now.Sub(base.at).Round(time.Millisecond), r.Delta)
	}
	return false, ""
}

// familyTotal sums every series of the named family in the registry
// snapshot (counters and gauges contribute Value; histograms their Count).
func familyTotal(r *obs.Registry, name string) float64 {
	for _, fam := range r.Snapshot().Metrics {
		if fam.Name != name {
			continue
		}
		var total float64
		for _, s := range fam.Series {
			if s.Count > 0 {
				total += float64(s.Count)
			} else {
				total += s.Value
			}
		}
		return total
	}
	return 0
}

// ParseRule parses one trigger rule in the declarative grammar:
//
//	journal:<kind>>=<count>/<window>     e.g. journal:breaker-open>=3/10s
//	counter:<metric>>=<delta>/<window>   e.g. counter:scec_fleet_query_errors_total>=5/30s
//
// <window> is a Go duration. Kinds are the Kind wire names.
func ParseRule(s string) (Rule, error) {
	scheme, rest, ok := strings.Cut(strings.TrimSpace(s), ":")
	if !ok {
		return nil, fmt.Errorf("flight: rule %q: want <scheme>:<expr>", s)
	}
	subject, bound, ok := strings.Cut(rest, ">=")
	if !ok {
		return nil, fmt.Errorf("flight: rule %q: want <subject>>=<threshold>/<window>", s)
	}
	thresh, window, ok := strings.Cut(bound, "/")
	if !ok {
		return nil, fmt.Errorf("flight: rule %q: want <threshold>/<window>", s)
	}
	within, err := time.ParseDuration(window)
	if err != nil || within <= 0 {
		return nil, fmt.Errorf("flight: rule %q: bad window %q", s, window)
	}
	switch scheme {
	case "journal":
		kind, ok := ParseKind(subject)
		if !ok {
			return nil, fmt.Errorf("flight: rule %q: unknown event kind %q", s, subject)
		}
		count, err := strconv.Atoi(thresh)
		if err != nil || count <= 0 {
			return nil, fmt.Errorf("flight: rule %q: bad count %q", s, thresh)
		}
		return JournalRule{Kind: kind, Count: count, Within: within}, nil
	case "counter":
		delta, err := strconv.ParseFloat(thresh, 64)
		if err != nil || delta <= 0 {
			return nil, fmt.Errorf("flight: rule %q: bad delta %q", s, thresh)
		}
		return &CounterRule{Metric: subject, Delta: delta, Within: within}, nil
	default:
		return nil, fmt.Errorf("flight: rule %q: unknown scheme %q (want journal or counter)", s, scheme)
	}
}

// ParseRules parses a comma-separated rule list (blank entries skipped).
func ParseRules(csv string) ([]Rule, error) {
	var rules []Rule
	for _, part := range strings.Split(csv, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		r, err := ParseRule(part)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// The watchdog's cadence and bounds. No caller tunes them, so they are
// constants rather than Config fields.
const (
	// interval is the rule evaluation cadence.
	interval = 250 * time.Millisecond
	// captureDelay is how long after a rule fires the capture waits, so the
	// bundle includes the immediate aftermath (the recovery replan after a
	// breaker storm, not just the storm).
	captureDelay = 250 * time.Millisecond
	// minGap rate-limits captures: once one bundle is written the watchdog
	// stays quiet for this long.
	minGap = 30 * time.Second
	// maxIncidents bounds retention under Dir; the oldest bundles beyond it
	// are deleted after each capture.
	maxIncidents = 8
	// captureTimeout bounds each route fetch of a capture, so a route that
	// blocks costs the bundle one file, not the bundle.
	captureTimeout = 5 * time.Second
)

// Config configures a Watchdog.
type Config struct {
	// Dir is the incident root; bundles land in Dir/<timestamp>/. Required.
	Dir string
	// Rules are the triggers; at least one is required.
	Rules []Rule
	// Journal feeds journal rules; Default() when nil.
	Journal *Journal
	// Metrics feeds counter rules; obs.Default() when nil.
	Metrics *obs.Registry
	// Handler is the process's telemetry mux (obs.Registry.Handler with its
	// debug routes); a bundle is its /debug index captured in-process by
	// obs.CaptureDebug. Nil means Metrics' handler with Journal's
	// /debug/journal route.
	Handler http.Handler
}

func (c Config) withDefaults() Config {
	if c.Journal == nil {
		c.Journal = Default()
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.Handler == nil {
		c.Handler = c.Metrics.Handler(Routes(c.Journal, "")...)
	}
	return c
}

// Watchdog evaluates trigger rules on a cadence and captures incident
// bundles when one fires. Create with NewWatchdog, start with Start, stop
// with Stop; CheckNow evaluates one tick synchronously (tests and CLIs use
// it for deterministic capture).
type Watchdog struct {
	cfg    Config
	client *http.Client // serves capture requests from cfg.Handler

	mu          sync.Mutex
	lastCapture time.Time
	incidents   []IncidentMeta // this process's captures, oldest first

	started atomic.Bool
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
}

// NewWatchdog validates cfg and returns a stopped watchdog.
func NewWatchdog(cfg Config) (*Watchdog, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("flight: watchdog needs an incident directory")
	}
	if len(cfg.Rules) == 0 {
		return nil, fmt.Errorf("flight: watchdog needs at least one rule")
	}
	cfg = cfg.withDefaults()
	return &Watchdog{
		cfg:    cfg,
		client: &http.Client{Transport: obs.HandlerTransport{Handler: cfg.Handler}, Timeout: captureTimeout},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}, nil
}

// Start launches the background evaluation loop.
func (w *Watchdog) Start() {
	w.started.Store(true)
	go func() {
		defer close(w.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				_, _ = w.CheckNow()
			}
		}
	}()
}

// Stop halts the loop and waits for it to exit. Safe to call twice, and
// without Start, in which case it returns at once.
func (w *Watchdog) Stop() {
	w.once.Do(func() { close(w.stop) })
	if w.started.Load() {
		<-w.done
	}
}

// CheckNow evaluates every rule once. The first rule in violation (outside
// the rate-limit gap) triggers a capture; the new bundle's metadata is
// returned, or nil if nothing fired.
func (w *Watchdog) CheckNow() (*IncidentMeta, error) {
	for _, r := range w.cfg.Rules {
		fired, detail := r.Fired(w)
		if !fired {
			continue
		}
		w.mu.Lock()
		limited := !w.lastCapture.IsZero() && time.Since(w.lastCapture) < minGap
		if !limited {
			w.lastCapture = time.Now()
		}
		w.mu.Unlock()
		if limited {
			return nil, nil
		}
		select {
		case <-w.stop:
		case <-time.After(captureDelay):
		}
		return w.Capture(r.Name(), detail)
	}
	return nil, nil
}

// Incidents returns the bundles this watchdog captured, oldest first.
func (w *Watchdog) Incidents() []IncidentMeta {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]IncidentMeta, len(w.incidents))
	copy(out, w.incidents)
	return out
}
