package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/scec/scec/internal/adapt"
)

// Acceptance bounds for -adapt-check (and the committed results/adapt.json):
// the adaptive arm's steady-state p99 must recover to within 1.5× the
// instant-replanning oracle, the frozen baseline must remain at least 2×
// worse than adaptive, no arm may fail a single query, and over the whole
// adaptive run no device may be sent two blocks of one encoding and no
// migration the controller attempted may fail.
const (
	adaptMaxOverOracle   = 1.5
	adaptMinFrozenFactor = 2.0
)

// runAdaptScenario is scecsim's closed-loop recovery study: a large
// virtual-clock fleet deployed by TA2 is hit mid-run by a chronic straggler
// and a transient outage, and three regimes serve the same Poisson arrivals —
// adaptive (the internal/adapt control plane), frozen (never re-plans), and
// oracle (re-plans instantly on the true factors). The report is
// deterministic for a given seed; outPath, when set, receives it as JSON, and
// check enforces the acceptance bounds.
func runAdaptScenario(out io.Writer, cfg adapt.ScenarioConfig, outPath string, check bool) error {
	rep, err := adapt.RunScenario(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "recovery scenario: %d devices, m=%d, %.0f QPS for %s (seed %d)\n",
		rep.Devices, rep.M, rep.QPS, time.Duration(rep.DurationMs)*time.Millisecond, rep.Seed)
	fmt.Fprintf(out, "faults: chronic straggler on device %d, outage on device %d\n",
		rep.StragglerDevice, rep.OutageDevice)
	fmt.Fprintln(out, "arm       steady-p50   steady-p95   steady-p99   overall-p99  final-r  replans  adopts  moved")
	for _, a := range []adapt.ArmResult{rep.Frozen, rep.Adaptive, rep.Oracle} {
		fmt.Fprintf(out, "%-8s %9.2fms  %9.2fms  %9.2fms  %9.2fms  %7d  %7d  %6d  %5d\n",
			a.Name, a.SteadyP50Ms, a.SteadyP95Ms, a.SteadyP99Ms, a.OverallP99Ms,
			a.FinalR, a.Replans, a.Adopts, a.BlocksMoved)
	}
	fmt.Fprintf(out, "adaptive/oracle steady p99 = %.2fx (bound ≤ %.1fx); frozen/adaptive = %.2fx (bound ≥ %.1fx)\n",
		rep.AdaptiveOverOracleP99, adaptMaxOverOracle, rep.FrozenOverAdaptiveP99, adaptMinFrozenFactor)
	fmt.Fprintf(out, "most blocks any device was sent under one encoding: %d (bound = 1); failed migrations: %d (bound = 0)\n",
		rep.MaxBlocksPerDevice, rep.FailedMigrations)
	for _, ev := range rep.Events {
		fmt.Fprintf(out, "  %s\n", ev)
	}

	if outPath != "" {
		if dir := filepath.Dir(outPath); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "report written to %s\n", outPath)
	}
	if check {
		return checkAdaptReport(rep)
	}
	return nil
}

// checkAdaptReport enforces the recovery acceptance bounds.
func checkAdaptReport(rep *adapt.RecoveryReport) error {
	for _, a := range []adapt.ArmResult{rep.Frozen, rep.Adaptive, rep.Oracle} {
		if a.FailedQueries != 0 {
			return fmt.Errorf("adapt-check: %s arm failed %d queries; migrations must drop none", a.Name, a.FailedQueries)
		}
	}
	if rep.AdaptiveOverOracleP99 > adaptMaxOverOracle {
		return fmt.Errorf("adapt-check: adaptive steady p99 is %.2fx the oracle's (bound %.1fx)",
			rep.AdaptiveOverOracleP99, adaptMaxOverOracle)
	}
	if rep.MaxBlocksPerDevice != 1 {
		return fmt.Errorf("adapt-check: a device was sent %d different blocks of one encoding; Def. 2 covers one",
			rep.MaxBlocksPerDevice)
	}
	if rep.FailedMigrations != 0 {
		return fmt.Errorf("adapt-check: %d migration(s) the controller attempted failed; the model substrate refuses none", rep.FailedMigrations)
	}
	if rep.FrozenOverAdaptiveP99 < adaptMinFrozenFactor {
		return fmt.Errorf("adapt-check: frozen baseline is only %.2fx worse than adaptive (bound %.1fx): the control plane bought too little",
			rep.FrozenOverAdaptiveP99, adaptMinFrozenFactor)
	}
	return nil
}
