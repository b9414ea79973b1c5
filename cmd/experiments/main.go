// Command experiments regenerates the paper's evaluation: the five panels
// of Fig. 2 and the headline-claims table. Results are printed as markdown
// and, with -out, also written as CSV + markdown files.
//
// Examples:
//
//	experiments -fig all -out results              # full reproduction
//	experiments -fig 2d -instances 100             # one quick panel
//	experiments -fig all -claims                   # figures + claims table
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

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
		fig       = fs.String("fig", "all", "figure to regenerate: 2a|2b|2c|2d|2e|all|rsweep|delay|comparison|dist|collusion")
		claims    = fs.Bool("claims", true, "also evaluate the headline claims (requires -fig all)")
		outDir    = fs.String("out", "", "directory for CSV + markdown output (empty: stdout only)")
		instances = fs.Int("instances", 0, "instances per sweep point (0: paper default of 1000)")
		seed      = fs.Uint64("seed", 0, "random seed (0: fixed default)")
		check     = fs.Bool("check", false, "with -fig collusion: fail unless plan cost is monotone in t and t=1 matches the TA1 baseline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.DefaultConfig()
	if *instances > 0 {
		cfg.Defaults.Instances = *instances
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	start := time.Now()
	// The special (non-Fig.-2) studies share one render-to-stdout +
	// optional-file pattern.
	specials := map[string]struct {
		file string
		// summarises: render prints its own summary to out and writes only
		// the file's content to w; the others render identical content to
		// stdout and to the file.
		summarises bool
		render     func(io.Writer) error
	}{
		"comparison": {"comparison.md", false, func(w io.Writer) error {
			res, err := experiments.Comparison(cfg)
			if err != nil {
				return err
			}
			return experiments.WriteComparisonMarkdown(w, res)
		}},
		"delay": {"delay.md", false, func(w io.Writer) error {
			res, err := experiments.DelaySweep(cfg)
			if err != nil {
				return err
			}
			return experiments.WriteDelayMarkdown(w, res)
		}},
		"dist": {"dist.md", false, func(w io.Writer) error {
			res, err := experiments.DistSweep(cfg)
			if err != nil {
				return err
			}
			return experiments.WriteDistMarkdown(w, res)
		}},
		"rsweep": {"rsweep.csv", true, func(w io.Writer) error {
			res, err := experiments.RSweep(cfg)
			if err != nil {
				return err
			}
			if err := experiments.WriteRSweepMarkdown(out, res); err != nil {
				return err
			}
			return experiments.WriteRSweepCSV(w, res)
		}},
		"collusion": {"collusion.json", true, func(w io.Writer) error {
			rep, err := experiments.CollusionSweep(cfg)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%-4s %-10s %6s %8s %12s %14s %14s\n", "t", "scheme", "r", "devices", "plan-cost", "encode-ns", "decode-ns")
			for _, p := range rep.Points {
				fmt.Fprintf(out, "%-4d %-10s %6d %8d %12.2f %14.0f %14.0f\n",
					p.T, p.Code, p.R, p.Devices, p.PlanCost, p.EncodeNs, p.DecodeNs)
			}
			if *check {
				if err := experiments.CheckCollusion(rep); err != nil {
					return err
				}
				fmt.Fprintf(out, "collusion check ok: cost monotone in t, t=1 Cauchy matches the TA1 baseline\n")
			}
			return experiments.WriteCollusionJSON(w, rep)
		}},
	}
	if sp, special := specials[*fig]; special {
		if !sp.summarises {
			if err := sp.render(out); err != nil {
				return err
			}
		}
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(*outDir, sp.file))
			if err != nil {
				return err
			}
			werr := sp.render(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return werr
			}
		} else if sp.summarises {
			if err := sp.render(io.Discard); err != nil {
				return err
			}
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
			if err := writeFiles(*outDir, r); err != nil {
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
			f, err := os.Create(filepath.Join(*outDir, "claims.md"))
			if err != nil {
				return err
			}
			werr := experiments.WriteClaims(f, rep)
			cerr := f.Close()
			if werr != nil {
				return werr
			}
			if cerr != nil {
				return cerr
			}
		}
	}
	fmt.Fprintf(out, "\ndone in %s (%d instances per point, seed %d)\n",
		time.Since(start).Round(time.Millisecond), cfg.Defaults.Instances, cfg.Seed)
	return nil
}

// writeFiles emits <id>.csv and <id>.md under dir.
func writeFiles(dir string, r experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	csvFile, err := os.Create(filepath.Join(dir, r.ID+".csv"))
	if err != nil {
		return err
	}
	werr := experiments.WriteCSV(csvFile, r)
	if cerr := csvFile.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}

	mdFile, err := os.Create(filepath.Join(dir, r.ID+".md"))
	if err != nil {
		return err
	}
	werr = experiments.WriteMarkdown(mdFile, r)
	if cerr := mdFile.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
