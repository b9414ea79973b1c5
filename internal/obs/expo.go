package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers per family, one line per
// series, and the _bucket/_sum/_count triple for histograms.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	var lastFamily string
	r.visit(func(f *family, s *series) {
		if f.name != lastFamily {
			if f.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
			lastFamily = f.name
		}
		switch f.typ {
		case typeCounter:
			fmt.Fprintf(&b, "%s%s %d\n", f.name, promLabels(s.labels, "", 0), s.counter.Value())
		case typeGauge:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, promLabels(s.labels, "", 0), formatFloat(s.gauge.Value()))
		case typeHistogram:
			h := s.hist
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, promLabels(s.labels, "le", bound), cum)
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, promLabels(s.labels, "le", math.Inf(1)), h.Count())
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, promLabels(s.labels, "", 0), formatFloat(h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, promLabels(s.labels, "", 0), h.Count())
		}
	})
	_, err := io.WriteString(w, b.String())
	return err
}

// promLabels renders a label set, optionally with a trailing le bound for
// histogram bucket lines (leKey == "le").
func promLabels(labels []Label, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, escapeLabel(l.Value))
	}
	if leKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", leKey, formatFloat(le))
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(v string) string {
	// %q already escapes backslash, quote, and newline per the format spec.
	return v
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// BucketCount is one cumulative histogram bucket in a snapshot.
type BucketCount struct {
	// UpperBound is the bucket's inclusive upper bound in the metric's unit
	// (math.Inf(1) renders as the JSON string "+Inf" via LE).
	LE string `json:"le"`
	// Count is the cumulative observation count up to LE.
	Count int64 `json:"count"`
}

// SeriesSnapshot is one labelled series at snapshot time.
type SeriesSnapshot struct {
	Labels map[string]string `json:"labels,omitempty"`
	// Value holds the counter or gauge value; unused for histograms.
	Value float64 `json:"value"`
	// Count/Sum/Buckets describe a histogram; empty otherwise.
	Count   int64         `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
	// Quantiles holds the interpolated p50/p95/p99 tail summary of a
	// non-empty histogram series (see Histogram.Quantile); nil otherwise.
	Quantiles *Tails `json:"quantiles,omitempty"`
	// Exemplars holds the per-bucket trace/device exemplars a histogram
	// series has retained (see Histogram.ObserveExemplar); nil otherwise.
	// Exemplars appear only in the JSON snapshot — the Prometheus text
	// exposition stays plain 0.0.4 format, which has no exemplar syntax.
	Exemplars []BucketExemplar `json:"exemplars,omitempty"`
}

// FamilySnapshot is one named metric with all its series.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Type   string           `json:"type"`
	Help   string           `json:"help,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is a point-in-time JSON-serializable view of a registry.
type Snapshot struct {
	UptimeSeconds float64          `json:"uptime_seconds"`
	Metrics       []FamilySnapshot `json:"metrics"`
}

// Snapshot captures every family and series in registration order.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{UptimeSeconds: r.Uptime().Seconds()}
	byName := make(map[string]int)
	r.visit(func(f *family, s *series) {
		i, ok := byName[f.name]
		if !ok {
			i = len(snap.Metrics)
			byName[f.name] = i
			snap.Metrics = append(snap.Metrics, FamilySnapshot{Name: f.name, Type: string(f.typ), Help: f.help})
		}
		ss := SeriesSnapshot{}
		if len(s.labels) > 0 {
			ss.Labels = make(map[string]string, len(s.labels))
			for _, l := range s.labels {
				ss.Labels[l.Key] = l.Value
			}
		}
		switch f.typ {
		case typeCounter:
			ss.Value = float64(s.counter.Value())
		case typeGauge:
			ss.Value = s.gauge.Value()
		case typeHistogram:
			h := s.hist
			ss.Count = h.Count()
			ss.Sum = h.Sum()
			var cum int64
			for i, bound := range h.bounds {
				cum += h.counts[i].Load()
				ss.Buckets = append(ss.Buckets, BucketCount{LE: formatFloat(bound), Count: cum})
			}
			ss.Buckets = append(ss.Buckets, BucketCount{LE: "+Inf", Count: h.Count()})
			if tails, ok := h.Tails(); ok {
				ss.Quantiles = &tails
			}
			ss.Exemplars = h.Exemplars()
		}
		snap.Metrics[i].Series = append(snap.Metrics[i].Series, ss)
	})
	return snap
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
