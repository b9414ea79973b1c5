// Command benchmark is the repository's one served-query benchmark: five
// closed-loop workloads over the public facade, end-to-end metrics measured
// with tracing off, and a separate traced ladder run that attributes the
// time to engine, fleet, transport, matrix, coding and alloc by calling
// each layer's exported entry points from here. See README.md.
//
// The driver runs it as
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// and reads the JSON object on the last line of standard output. Without
// --workload it runs all five workloads, both ways, and prints the tables.
// With -compare it judges two sets of result files.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// budgetFor is a generous estimate of one run's wall time; the supervisor
// kills a child that takes three times as long.
func budgetFor(seconds float64) time.Duration {
	return time.Duration((seconds + 12) * float64(time.Second))
}

// maxDeadline keeps a hung child inside the driver's own per-run limit.
const maxDeadline = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload (default: all five)")
		seed     = flag.Uint64("seed", 1, "seed for A and the query vectors")
		seconds  = flag.Float64("seconds", 16, "length of the measured phase")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced ladder run")
		child    = flag.Bool("child", false, "internal: run the workload in this process")
		compare  = flag.Bool("compare", false, "compare result files: -compare BASE CHANGE (each a directory or a comma-separated list)")
		outFlag  = flag.String("out", "", "directory for traces, goroutine dumps and result files (default: the benchmark's out/)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare BASE CHANGE")
		}
		bounds, err := loadBounds()
		if err != nil {
			fatal("%v", err)
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), bounds); err != nil {
			fatal("%v", err)
		}
		return
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatal("need -seconds > 0 and -trace 0 or 1")
	}
	outDir := *outFlag
	if outDir == "" {
		outDir = defaultOutDir()
	}

	s, known := specByName(*workload)
	if !known && (*workload != "" || *child) {
		fatal("unknown workload %q", *workload)
	}
	if *child {
		res, err := runWorkload(s, *seed, scheduleFor(s, *seconds, *traced == 1), *traced == 1, outDir)
		if err != nil {
			fatal("%s: %v", s.name, err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal("%v", err)
		}
		return
	}

	env := currentEnv(*seed, *seconds)
	if *workload != "" {
		res, err := supervise(s, *seed, *seconds, *traced, outDir)
		if err != nil {
			fatal("%v", err)
		}
		file := resultFile{Env: env, Runs: []*runResult{res}}
		name := fmt.Sprintf("result.seed%d.%s.trace%d.json", *seed, s.name, *traced)
		if err := file.write(filepath.Join(outDir, name)); err != nil {
			fatal("%v", err)
		}
		if err := printDriverLine(os.Stdout, res); err != nil {
			fatal("%v", err)
		}
		return
	}

	file := resultFile{Env: env}
	for _, s := range specs {
		for t := 0; t <= 1; t++ {
			res, err := supervise(s, *seed, *seconds, t, outDir)
			if err != nil {
				fatal("%v", err)
			}
			file.Runs = append(file.Runs, res)
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("result.seed%d.%d.json", *seed, time.Now().Unix()))
	if err := file.write(path); err != nil {
		fatal("%v", err)
	}
	file.print(os.Stdout)
	fmt.Printf("\nresult file: %s\n", path)
	for _, r := range file.Runs {
		if !r.Correct {
			fatal("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// defaultOutDir is the benchmark's own out/ directory.
func defaultOutDir() string { return filepath.Join(repoRoot(), "benchmark", "out") }

// supervise runs one workload in a child process under a hard deadline, so
// that process-global state (the kernel pool, the default registry and
// journal, the shared connection pool) never leaks between workloads and a
// hang costs one deadline, not the whole run. On expiry the child gets
// SIGQUIT, its goroutine dump is saved next to the traces, and the error
// names the workload.
func supervise(s spec, seed uint64, seconds float64, traced int, outDir string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child",
		"-workload", s.name,
		"-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(traced),
		"-out", outDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = io.MultiWriter(&stderr, os.Stderr)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	deadline := min(3*budgetFor(seconds), maxDeadline)
	select {
	case err := <-done:
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", s.name, err)
		}
	case <-time.After(deadline):
		// SIGQUIT makes the Go runtime print every goroutine and exit.
		_ = cmd.Process.Signal(syscall.SIGQUIT)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
		dump := filepath.Join(outDir, s.name+".goroutines.txt")
		if err := os.MkdirAll(outDir, 0o755); err == nil {
			_ = os.WriteFile(dump, stderr.Bytes(), 0o644)
		}
		return nil, fmt.Errorf("workload %s hung: no result after %v, every operation counted as failed; goroutine dump in %s", s.name, deadline, dump)
	}
	var res runResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("workload %s: unreadable result: %w", s.name, err)
	}
	if res.Workload != s.name {
		return nil, fmt.Errorf("workload %s: child reported %s", s.name, res.Workload)
	}
	return &res, nil
}
