package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/scec/scec/internal/matrix"
)

// env is the header every result carries: two results compare only when the
// machine-shaped fields agree.
type env struct {
	Commit         string  `json:"commit"`
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	KernelPoolSize int     `json:"kernel_pool_size"`
	Seed           uint64  `json:"seed"`
	Seconds        float64 `json:"seconds"`
}

func currentEnv(seed uint64, seconds float64) env {
	return env{
		Commit:         commit(),
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		KernelPoolSize: matrix.PoolSize(),
		Seed:           seed,
		Seconds:        seconds,
	}
}

// repoRoot is the directory that holds BENCHMARK.json: the working directory,
// or its parent when the program was started inside benchmark/.
func repoRoot() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return "."
	}
	return ".."
}

// commit asks git for the checked-out commit; a driver's checkout is not a
// repository, and then the header says so. The ceiling keeps git from
// looking for a repository above the checkout.
func commit() string {
	root, err := filepath.Abs(repoRoot())
	if err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "--short", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultFile is what a run leaves in out/ and what -compare reads.
type resultFile struct {
	Env  env          `json:"env"`
	Runs []*runResult `json:"runs"`
}

func (f resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverLine(w io.Writer, r *runResult) error {
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]driverMetric)}
	for name, m := range r.Metrics {
		line.Metrics[name] = driverMetric{m.Value, m.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}

// print renders the environment header, then one end-to-end table and one
// per-layer table with a column per workload.
func (f resultFile) print(w io.Writer) {
	e := f.Env
	fmt.Fprintf(w, "commit %s  nproc %d  GOMAXPROCS %d  %s  kernel_pool_size %d  seed %d  seconds %g\n",
		e.Commit, e.NProc, e.GOMAXPROCS, e.GoVersion, e.KernelPoolSize, e.Seed, e.Seconds)
	f.table(w, "end-to-end (tracing off)", endToEnd, false)
	f.table(w, "per layer (traced ladder run)", perLayer, true)
}

func (f resultFile) table(w io.Writer, title string, defs []metricDef, traced bool) {
	var cols []*runResult
	for _, r := range f.Runs {
		if r.Traced == traced {
			cols = append(cols, r)
		}
	}
	if len(cols) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%s\n", title)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, r := range cols {
		name := r.Workload
		if r.Noisy {
			name += " (noisy)"
		}
		fmt.Fprintf(tw, "%s\t", name)
	}
	fmt.Fprintln(tw)
	for _, d := range defs {
		fmt.Fprintf(tw, "%s\t%s\t", d.name, d.unit)
		for _, r := range cols {
			if m := r.Metrics[d.name]; m.NA {
				fmt.Fprint(tw, "n/a\t")
			} else {
				fmt.Fprintf(tw, "%.4g\t", m.Value)
			}
		}
		fmt.Fprintln(tw)
	}
	if !traced {
		fmt.Fprint(tw, "fail_ratio\tratio\t")
		for _, r := range cols {
			fmt.Fprintf(tw, "%.4g\t", ratio(float64(r.Failed), float64(r.Attempted)))
		}
		fmt.Fprintln(tw)
	}
	_ = tw.Flush()
}
