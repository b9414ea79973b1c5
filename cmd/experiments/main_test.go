package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "2e", "-instances", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig2e") {
		t.Fatalf("output missing fig2e table:\n%s", out.String())
	}
}

func TestRunAcceptsFigPrefix(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "fig2c", "-instances", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fig2c") {
		t.Fatal("prefix form should work")
	}
}

func TestRunAllWithClaimsAndFiles(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-fig", "all", "-instances", "3", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Headline claims") {
		t.Fatal("claims table missing")
	}
	for _, name := range []string{"fig2a.csv", "fig2a.md", "fig2e.csv", "claims.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing output file %s: %v", name, err)
		}
	}
}

func TestRunRSweep(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-fig", "rsweep", "-instances", "3", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rsweep") {
		t.Fatal("rsweep summary missing")
	}
	if !strings.Contains(out.String(), "(3 instances, seed") {
		t.Errorf("rsweep summary does not name the 3 instances it ran:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "rsweep.csv")); err != nil {
		t.Errorf("missing rsweep.csv: %v", err)
	}
}

func TestRunDelay(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-fig", "delay", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replication vs stragglers") {
		t.Fatal("delay table missing")
	}
	// The delay study never reads -instances, so its summary must not
	// claim a count.
	if strings.Contains(out.String(), "instances") {
		t.Errorf("delay summary names an instance count it never used:\n%s", out.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "delay.md")); err != nil {
		t.Errorf("missing delay.md: %v", err)
	}
}

func TestRunComparison(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-fig", "comparison", "-instances", "5", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "related-work schemes") {
		t.Fatal("comparison table missing")
	}
	if _, err := os.Stat(filepath.Join(dir, "comparison.md")); err != nil {
		t.Errorf("missing comparison.md: %v", err)
	}
}

func TestRunDist(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-fig", "dist", "-instances", "5", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cost distributions") {
		t.Fatal("dist table missing")
	}
	if _, err := os.Stat(filepath.Join(dir, "dist.md")); err != nil {
		t.Errorf("missing dist.md: %v", err)
	}
}

func TestRunRSweepWithoutOutDir(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "rsweep", "-instances", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "rsweep") {
		t.Fatal("rsweep summary missing")
	}
	if !strings.Contains(out.String(), "(3 instances, seed") {
		t.Errorf("rsweep summary does not name the 3 instances it ran:\n%s", out.String())
	}
}

func TestRunUnknownFigure(t *testing.T) {
	// "bench" was a figure until the results-file harness was deleted; it
	// must fail like any other unknown name, not fall through to a default.
	for _, fig := range []string{"9z", "bench"} {
		var out strings.Builder
		if err := run([]string{"-fig", fig, "-instances", "3"}, &out); err == nil {
			t.Errorf("-fig %s should error as an unknown figure", fig)
		}
	}
}

// TestRunCheckWithoutCheckRefused: -check on a -fig with no acceptance
// check must fail before running anything, naming the studies that have one,
// rather than exit 0 having checked nothing.
func TestRunCheckWithoutCheckRefused(t *testing.T) {
	for _, fig := range []string{"delay", "2e", "all"} {
		var out strings.Builder
		err := run([]string{"-fig", fig, "-check", "-instances", "3"}, &out)
		if err == nil || !strings.Contains(err.Error(), "adapt, collusion, load") {
			t.Errorf("-fig %s -check: err = %v, want a refusal naming adapt, collusion, load", fig, err)
		}
		if out.Len() != 0 {
			t.Errorf("-fig %s -check ran before refusing:\n%s", fig, out.String())
		}
	}
}

func TestRunCustomSeedChangesOutput(t *testing.T) {
	var a, b strings.Builder
	if err := run([]string{"-fig", "2c", "-instances", "3", "-seed", "1"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fig", "2c", "-instances", "3", "-seed", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	// Strip the trailing timing line, which legitimately differs.
	trim := func(s string) string {
		lines := strings.Split(s, "\n")
		return strings.Join(lines[:len(lines)-2], "\n")
	}
	if trim(a.String()) == trim(b.String()) {
		t.Fatal("different seeds should change the sampled fleets")
	}
}

// TestRunLoadMatchesCommittedReport: -fig load -check prints both scenarios'
// curves and SLO verdicts, writes the committed results/load.json and
// load.md byte for byte, and the declared SLO holds.
func TestRunLoadMatchesCommittedReport(t *testing.T) {
	runMatchesCommitted(t, "load", []string{"load.json", "load.md"},
		"sim-1000dev-churn: knee at 1000 QPS", "sim-t2-6dev-churn: knee at 1000 QPS", "SLO p99<=100ms@1000: measured")
}

// TestRunAdaptMatchesCommittedReport: -fig adapt -check prints the three
// arms and the adaptive arm's migrations, writes the committed
// results/adapt.json byte for byte, and the recovery bounds hold.
func TestRunAdaptMatchesCommittedReport(t *testing.T) {
	runMatchesCommitted(t, "adapt", []string{"adapt.json"},
		"recovery scenario:", "frozen", "adaptive", "oracle", "rehost block")
}

// runMatchesCommitted runs -fig fig -check -out into a temporary directory,
// checks the printed summary holds every phrase in summary, and compares
// each named file with its committed copy under results/.
func runMatchesCommitted(t *testing.T, fig string, files []string, summary ...string) {
	t.Helper()
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-fig", fig, "-check", "-out", dir}, &out); err != nil {
		t.Fatalf("-fig %s -check: %v\n%s", fig, err, out.String())
	}
	for _, want := range append(summary, fig+" check ok", "seed 1)") {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-fig %s output missing %q:\n%s", fig, want, out.String())
		}
	}
	for _, name := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("-fig %s no longer reproduces results/%s:\n%s", fig, name, got)
		}
	}
}
