// Command experiments regenerates the paper's evaluation and every
// committed study: the five panels of Fig. 2 and the headline-claims table,
// the rsweep, delay, comparison, dist and collusion studies, and the two
// virtual-clock studies — the 1000-device load sweep (results/load.json,
// load.md) and the closed-loop recovery scenario (results/adapt.json).
// Results are printed and, with -out, also written as files; -check enforces
// a study's acceptance bounds (collusion, load, adapt).
//
// Examples:
//
//	experiments -fig all -out results              # full reproduction
//	experiments -fig 2d -instances 100             # one quick panel
//	experiments -fig load -check -out results      # load sweep + SLO gate
//	experiments -fig adapt -check -out results     # recovery scenario + bounds
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/scec/scec/internal/adapt"
	"github.com/scec/scec/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		fig       = fs.String("fig", "all", "figure or study to regenerate: 2a|2b|2c|2d|2e|all|rsweep|delay|comparison|dist|collusion|load|adapt")
		claims    = fs.Bool("claims", true, "also evaluate the headline claims (requires -fig all)")
		outDir    = fs.String("out", "", "directory for the output files (empty: stdout only)")
		instances = fs.Int("instances", 0, "instances per sweep point (0: paper default of 1000)")
		seed      = fs.Uint64("seed", 0, "random seed (0: fixed default; 1 for -fig load and adapt, the seed their committed reports record)")
		check     = fs.Bool("check", false, "enforce the study's acceptance bounds, exiting non-zero on a violation: collusion (plan cost monotone in t, t=1 matches the TA1 baseline), load (the declared SLO p99<=100ms@1000), adapt (recovery within 1.5x oracle, >=2x better than frozen, no failed query or migration)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.DefaultConfig()
	if *instances > 0 {
		cfg.Defaults.Instances = *instances
	}
	if *fig == "load" || *fig == "adapt" {
		cfg.Seed = experiments.VirtualSeed
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	start := time.Now()
	if study, ok := studies[*fig]; ok {
		files, accept, err := study(cfg, out)
		if err != nil {
			return err
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			for _, file := range files {
				if err := writeFile(filepath.Join(*outDir, file.name), file.write); err != nil {
					return err
				}
			}
		}
		if *check && accept != nil {
			if err := accept(); err != nil {
				return err
			}
			fmt.Fprintf(out, "%s check ok\n", *fig)
		}
		fmt.Fprintf(out, "done in %s (%d instances, seed %d)\n",
			time.Since(start).Round(time.Millisecond), cfg.Defaults.Instances, cfg.Seed)
		return nil
	}

	var results []experiments.Result
	switch *fig {
	case "all":
		all, err := experiments.All(cfg)
		if err != nil {
			return err
		}
		results = all
	default:
		id := "fig" + strings.TrimPrefix(*fig, "fig")
		r, err := experiments.Figure(cfg, id)
		if err != nil {
			return err
		}
		results = []experiments.Result{r}
	}

	for _, r := range results {
		if err := experiments.WriteMarkdown(out, r); err != nil {
			return err
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			if err := writeFile(filepath.Join(*outDir, r.ID+".csv"), func(w io.Writer) error { return experiments.WriteCSV(w, r) }); err != nil {
				return err
			}
			if err := writeFile(filepath.Join(*outDir, r.ID+".md"), func(w io.Writer) error { return experiments.WriteMarkdown(w, r) }); err != nil {
				return err
			}
		}
	}

	if *claims && *fig == "all" {
		rep, err := experiments.Claims(results)
		if err != nil {
			return err
		}
		if err := experiments.WriteClaims(out, rep); err != nil {
			return err
		}
		if *outDir != "" {
			if err := writeFile(filepath.Join(*outDir, "claims.md"), func(w io.Writer) error { return experiments.WriteClaims(w, rep) }); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(out, "\ndone in %s (%d instances per point, seed %d)\n",
		time.Since(start).Round(time.Millisecond), cfg.Defaults.Instances, cfg.Seed)
	return nil
}

// file is one output a study writes under -out.
type file struct {
	name  string
	write func(io.Writer) error
}

// A study runs once, prints its summary to out, and returns the files -out
// writes and the acceptance check -check runs (nil when it has none).
type study func(cfg experiments.Config, out io.Writer) ([]file, func() error, error)

// studies are the -fig values beyond Fig. 2.
var studies = map[string]study{
	"comparison": func(cfg experiments.Config, out io.Writer) ([]file, func() error, error) {
		res, err := experiments.Comparison(cfg)
		if err != nil {
			return nil, nil, err
		}
		write := func(w io.Writer) error { return experiments.WriteComparisonMarkdown(w, res) }
		return []file{{"comparison.md", write}}, nil, write(out)
	},
	"delay": func(cfg experiments.Config, out io.Writer) ([]file, func() error, error) {
		res, err := experiments.DelaySweep(cfg)
		if err != nil {
			return nil, nil, err
		}
		write := func(w io.Writer) error { return experiments.WriteDelayMarkdown(w, res) }
		return []file{{"delay.md", write}}, nil, write(out)
	},
	"dist": func(cfg experiments.Config, out io.Writer) ([]file, func() error, error) {
		res, err := experiments.DistSweep(cfg)
		if err != nil {
			return nil, nil, err
		}
		write := func(w io.Writer) error { return experiments.WriteDistMarkdown(w, res) }
		return []file{{"dist.md", write}}, nil, write(out)
	},
	"rsweep": func(cfg experiments.Config, out io.Writer) ([]file, func() error, error) {
		res, err := experiments.RSweep(cfg)
		if err != nil {
			return nil, nil, err
		}
		write := func(w io.Writer) error { return experiments.WriteRSweepCSV(w, res) }
		return []file{{"rsweep.csv", write}}, nil, experiments.WriteRSweepMarkdown(out, res)
	},
	"collusion": func(cfg experiments.Config, out io.Writer) ([]file, func() error, error) {
		rep, err := experiments.CollusionSweep(cfg)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(out, "%-4s %-10s %6s %8s %12s %14s %14s\n", "t", "scheme", "r", "devices", "plan-cost", "encode-ns", "decode-ns")
		for _, p := range rep.Points {
			fmt.Fprintf(out, "%-4d %-10s %6d %8d %12.2f %14.0f %14.0f\n",
				p.T, p.Code, p.R, p.Devices, p.PlanCost, p.EncodeNs, p.DecodeNs)
		}
		write := func(w io.Writer) error { return experiments.WriteCollusionJSON(w, rep) }
		return []file{{"collusion.json", write}}, func() error { return experiments.CheckCollusion(rep) }, nil
	},
	"load": func(cfg experiments.Config, out io.Writer) ([]file, func() error, error) {
		rep, err := experiments.LoadSweep(cfg)
		if err != nil {
			return nil, nil, err
		}
		for _, sc := range rep.Scenarios {
			sc.WriteText(out)
		}
		return []file{{"load.json", rep.WriteJSON}, {"load.md", rep.WriteMarkdown}}, rep.Check, nil
	},
	"adapt": func(cfg experiments.Config, out io.Writer) ([]file, func() error, error) {
		rep, err := adapt.RunScenario(adapt.ScenarioConfig{Seed: cfg.Seed})
		if err != nil {
			return nil, nil, err
		}
		rep.WriteText(out)
		return []file{{"adapt.json", rep.WriteJSON}}, func() error { return adapt.CheckRecovery(rep) }, nil
	},
}

// writeFile creates path and renders its content with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
