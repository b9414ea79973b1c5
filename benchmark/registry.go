package main

import "github.com/scec/scec/internal/obs"

// regView is a point-in-time read of the registries a run hands to the
// stack: the run's own (engine, fleet, transport client and device servers)
// and the process default (the kernel dispatch counters only live there).
// Everything is read through the exported Snapshot, from outside.
type regView struct {
	fams map[string][]obs.SeriesSnapshot
}

func readRegistries(regs ...*obs.Registry) regView {
	v := regView{fams: make(map[string][]obs.SeriesSnapshot)}
	for _, r := range regs {
		for _, f := range r.Snapshot().Metrics {
			v.fams[f.Name] = append(v.fams[f.Name], f.Series...)
		}
	}
	return v
}

// match reports whether a series carries every label in want (key, value
// pairs).
func match(s obs.SeriesSnapshot, want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		if s.Labels[want[i]] != want[i+1] {
			return false
		}
	}
	return true
}

// counter sums the counter series of name that carry the given labels.
func (v regView) counter(name string, labels ...string) float64 {
	total := 0.0
	for _, s := range v.fams[name] {
		if match(s, labels) {
			total += s.Value
		}
	}
	return total
}

// hist sums count and sum over the histogram series of name that carry the
// given labels.
func (v regView) hist(name string, labels ...string) (count, sum float64) {
	for _, s := range v.fams[name] {
		if match(s, labels) {
			count += float64(s.Count)
			sum += s.Sum
		}
	}
	return count, sum
}

// regDelta is what the registries counted between two reads.
type regDelta struct{ before, after regView }

func (d regDelta) counter(name string, labels ...string) float64 {
	return d.after.counter(name, labels...) - d.before.counter(name, labels...)
}

// histMean is the mean observation of a histogram over the interval, or 0
// when it saw none.
func (d regDelta) histMean(name string, labels ...string) float64 {
	c1, s1 := d.after.hist(name, labels...)
	c0, s0 := d.before.hist(name, labels...)
	if c1 == c0 {
		return 0
	}
	return (s1 - s0) / (c1 - c0)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
