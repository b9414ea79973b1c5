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
