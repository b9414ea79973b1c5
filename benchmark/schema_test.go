package main

import (
	"os"
	"regexp"
	"testing"
)

// The names this program emits are exactly the names BENCHMARK.json
// declares: none missing, none extra, same units, same workloads.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	check := func(kind string, declared []metricBound, emitted []metricDef, bounded bool) {
		t.Helper()
		want := make(map[string]string)
		for _, d := range emitted {
			want[d.name] = d.unit
		}
		seen := make(map[string]bool)
		for _, m := range declared {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s %q (%q): name or unit outside the allowed alphabet", kind, m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("%s %q declared twice", kind, m.Name)
			}
			seen[m.Name] = true
			if u, ok := want[m.Name]; !ok {
				t.Errorf("%s %q is declared but never emitted", kind, m.Name)
			} else if u != m.Unit {
				t.Errorf("%s %q: declared unit %q, emitted unit %q", kind, m.Name, m.Unit, u)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %q: better = %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %q: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
		for _, d := range emitted {
			if !seen[d.name] {
				t.Errorf("%s %q is emitted but not declared", kind, d.name)
			}
		}
	}
	check("end-to-end metric", b.EndToEnd, endToEnd, true)
	check("per-layer metric", b.PerLayer, perLayer, false)

	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d run", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: declared %q (%q), run %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name or why outside the limits", w.Name)
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if st, err := os.Stat("../BENCHMARK.json"); err != nil || st.Size() > 64<<10 {
		t.Errorf("BENCHMARK.json: %v, size limit 64 KiB", err)
	}
}
