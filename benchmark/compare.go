package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkJSON mirrors BENCHMARK.json, the contract between this program
// and whatever drives it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricBound `json:"end_to_end"`
	PerLayer []metricBound `json:"per_layer"`
}

// metricBound is one metric's declared direction and, for end-to-end
// metrics, the share of the parent's median it may worsen by.
type metricBound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON() (benchmarkJSON, error) {
	var b benchmarkJSON
	data, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return b, err
	}
	err = json.Unmarshal(data, &b)
	return b, err
}

func loadBounds() (map[string]metricBound, error) {
	b, err := loadBenchmarkJSON()
	if err != nil {
		return nil, err
	}
	bounds := make(map[string]metricBound)
	for _, m := range b.EndToEnd {
		bounds[m.Name] = m
	}
	return bounds, nil
}

// minPairsToClaim is how many parent/change pairs a gain needs before it is
// called one (choosing-metrics §8).
const minPairsToClaim = 10

// Verdicts of judge.
const (
	improved    = "improved"
	withinBound = "within-bound"
	unresolved  = "unresolved"
	regressed   = "regressed"
)

// judge compares one metric's runs, base[i] paired with change[i], by the
// choosing-metrics §8 rule. A gain needs at least ten pairs, the change
// winning nine tenths of them (ties count for neither side) and the medians
// apart by more than the base's own interquartile distance. A regression is
// the change's median worse than the base's by more than bound. Where the
// base's own spread exceeds the bound the metric is unresolved, unless every
// run of one side beats every run of the other.
func judge(base, change []float64, lowerIsBetter bool, bound float64) string {
	// worse(a, b): a reads worse than b.
	worse := func(a, b float64) bool {
		if lowerIsBetter {
			return a > b
		}
		return a < b
	}
	q1, bm, q3 := quartiles(base)
	cm := median(change)
	iqr := q3 - q1
	spread := ratio(iqr, bm)

	best, worst := slices.Min[[]float64], slices.Max[[]float64]
	if !lowerIsBetter {
		best, worst = worst, best
	}
	allChangeWorse := worse(best(change), worst(base))
	allChangeBetter := worse(best(base), worst(change))

	worsening := ratio(cm-bm, bm)
	if !lowerIsBetter {
		worsening = -worsening
	}
	if worsening > bound {
		if spread > bound && !allChangeWorse {
			return unresolved
		}
		return regressed
	}

	pairs := min(len(base), len(change))
	wins := 0
	for i := 0; i < pairs; i++ {
		if worse(base[i], change[i]) {
			wins++
		}
	}
	if pairs >= minPairsToClaim && wins*10 >= 9*pairs && worse(bm, cm) && math.Abs(cm-bm) > iqr {
		return improved
	}
	if spread > bound && !allChangeBetter {
		return unresolved
	}
	return withinBound
}

// expandSide turns one -compare argument into result files: every *.json of
// a directory, or a comma-separated list.
func expandSide(arg string) ([]string, error) {
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		files, err := filepath.Glob(filepath.Join(arg, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
		return files, nil
	}
	return strings.Split(arg, ","), nil
}

// loadSide reads one side's result files, ordered by seed so that the i-th
// file of each side pairs up.
func loadSide(arg string) ([]resultFile, error) {
	paths, err := expandSide(arg)
	if err != nil {
		return nil, err
	}
	if len(paths) < 2 {
		return nil, fmt.Errorf("%s: need at least two result files per side, found %d", arg, len(paths))
	}
	var files []resultFile
	for _, p := range paths {
		f, err := readResultFile(p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	sort.SliceStable(files, func(i, j int) bool { return files[i].Env.Seed < files[j].Env.Seed })
	return files, nil
}

// comparableSets refuses sets that were not measured alike: GOMAXPROCS, Go
// version and run length must agree everywhere, and the two sides must have
// run the same seeds.
func comparableSets(base, change []resultFile) error {
	ref := base[0].Env
	for _, f := range append(slices.Clone(base), change...) {
		e := f.Env
		if e.GOMAXPROCS != ref.GOMAXPROCS || e.GoVersion != ref.GoVersion || e.Seconds != ref.Seconds {
			return fmt.Errorf("runs differ in environment: GOMAXPROCS %d/%d, Go %s/%s, seconds %g/%g",
				ref.GOMAXPROCS, e.GOMAXPROCS, ref.GoVersion, e.GoVersion, ref.Seconds, e.Seconds)
		}
	}
	if len(base) != len(change) {
		return fmt.Errorf("sides differ in size: %d base runs, %d change runs", len(base), len(change))
	}
	for i := range base {
		if base[i].Env.Seed != change[i].Env.Seed {
			return fmt.Errorf("sides ran different seeds: base has %d where change has %d", base[i].Env.Seed, change[i].Env.Seed)
		}
	}
	return nil
}

// valuesOf collects one end-to-end metric of one workload across files.
func valuesOf(files []resultFile, workload, metric string) []float64 {
	var out []float64
	for _, f := range files {
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Traced {
				out = append(out, r.Metrics[metric].Value)
			}
		}
	}
	return out
}

// runCompare prints, per workload and end-to-end metric, both sides'
// medians and quartiles, the base's own spread, and the verdict.
func runCompare(w io.Writer, baseArg, changeArg string, bounds map[string]metricBound) error {
	base, err := loadSide(baseArg)
	if err != nil {
		return err
	}
	change, err := loadSide(changeArg)
	if err != nil {
		return err
	}
	if err := comparableSets(base, change); err != nil {
		return err
	}
	fmt.Fprintf(w, "base %s (%d files)  change %s (%d files)  GOMAXPROCS %d  %s\n",
		base[0].Env.Commit, len(base), change[0].Env.Commit, len(change), base[0].Env.GOMAXPROCS, base[0].Env.GoVersion)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median [q1, q3]\tchange median [q1, q3]\tchange\tbase spread\tbound\tverdict")
	counts := make(map[string]int)
	pairs := 0
	for _, s := range specs {
		for _, d := range endToEnd {
			b, c := valuesOf(base, s.name, d.name), valuesOf(change, s.name, d.name)
			if len(b) < 2 || len(b) != len(c) {
				continue
			}
			pairs = len(b)
			mb := bounds[d.name]
			verdict := judge(b, c, mb.Better != "higher", mb.Bound)
			counts[verdict]++
			bq1, bm, bq3 := quartiles(b)
			cq1, cm, cq3 := quartiles(c)
			fmt.Fprintf(tw, "%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				s.name, d.name, bm, bq1, bq3, cm, cq1, cq3, 100*ratio(cm-bm, bm), 100*ratio(bq3-bq1, bm), 100*mb.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d improved, %d within-bound, %d unresolved, %d regressed", counts[improved], counts[withinBound], counts[unresolved], counts[regressed])
	if pairs < minPairsToClaim {
		fmt.Fprintf(w, " (%d pairs: a gain needs %d to be claimed)", pairs, minPairsToClaim)
	}
	fmt.Fprintln(w)
	return nil
}
