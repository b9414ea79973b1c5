package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what a driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 22, 2, 16, 4, 37, 7, 29, 11})
	for _, c := range []struct{ got, want float64 }{{q1, 3.5}, {q2, 13.5}, {q3, 31}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartile = %v, want %v", c.got, c.want)
		}
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 3 values = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(v []float64, by float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * by
		}
		return out
	}
	noisy := []float64{100, 140, 90, 130, 85, 120, 95, 150, 80, 110}
	cases := []struct {
		name          string
		base, change  []float64
		lowerIsBetter bool
		bound         float64
		want          string
	}{
		{"same code", steady, shift(steady, 1.01), true, 0.10, withinBound},
		{"slower beyond the bound", steady, shift(steady, 1.20), true, 0.10, regressed},
		{"faster on every pair", steady, shift(steady, 0.80), true, 0.10, improved},
		{"fewer qps beyond the bound", steady, shift(steady, 0.80), false, 0.10, regressed},
		{"more qps on every pair", steady, shift(steady, 1.20), false, 0.10, improved},
		{"too few pairs to claim", steady[:3], shift(steady[:3], 0.80), true, 0.10, withinBound},
		{"spread wider than the bound", noisy, shift(noisy, 1.05), true, 0.10, unresolved},
		{"spread wider than the bound, median beyond it", noisy, shift(noisy, 1.15), true, 0.10, unresolved},
		{"noisy but every run slower than every base run", noisy, shift(noisy, 2), true, 0.10, regressed},
	}
	for _, c := range cases {
		if got := judge(c.base, c.change, c.lowerIsBetter, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func writeResult(t *testing.T, dir, name string, e env, p50 float64) {
	t.Helper()
	run := &runResult{Workload: "fleet_small_seq", Metrics: map[string]metricValue{"query_p50_us": {Value: p50, Unit: "us"}}}
	if err := (resultFile{Env: e, Runs: []*runResult{run}}).write(filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

// Two sets compare only when they were measured alike.
func TestCompareRefusesUnlikeRuns(t *testing.T) {
	bounds := map[string]metricBound{"query_p50_us": {Name: "query_p50_us", Better: "lower", Bound: 0.10}}
	e := env{GOMAXPROCS: 2, GoVersion: "go1.24.0", Seconds: 16}
	with := func(f func(*env)) env { c := e; f(&c); return c }

	base, change := t.TempDir(), t.TempDir()
	for i, seed := range []uint64{1, 2, 3} {
		writeResult(t, base, string(rune('a'+i))+".json", with(func(c *env) { c.Seed = seed }), 100+float64(i))
		writeResult(t, change, string(rune('a'+i))+".json", with(func(c *env) { c.Seed = seed }), 130+float64(i))
	}
	var out bytes.Buffer
	if err := runCompare(&out, base, change, bounds); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), regressed) || !strings.Contains(out.String(), "fleet_small_seq") {
		t.Errorf("a 30%% slowdown was not reported as regressed:\n%s", out.String())
	}

	for name, mutate := range map[string]func(*env){
		"GOMAXPROCS": func(c *env) { c.GOMAXPROCS = 4 },
		"Go version": func(c *env) { c.GoVersion = "go1.25.0" },
		"seed":       func(c *env) { c.Seed = 9 },
	} {
		other := t.TempDir()
		for i, seed := range []uint64{1, 2, 3} {
			writeResult(t, other, string(rune('a'+i))+".json", with(func(c *env) { c.Seed = seed; mutate(c) }), 100)
		}
		if err := runCompare(&out, base, other, bounds); err == nil {
			t.Errorf("runs that differ in %s were compared", name)
		}
	}
}
