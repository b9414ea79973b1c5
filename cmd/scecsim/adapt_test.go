package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/scec/scec/internal/adapt"
)

func TestRunAdaptiveScenario(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "adapt.json")
	var out strings.Builder
	err := run([]string{
		"-adaptive", "-adapt-check",
		"-adapt-devices", "200", "-adapt-m", "1024",
		"-adapt-duration", "20s", "-adapt-qps", "50",
		"-adapt-out", outPath,
	}, &out)
	if err != nil {
		t.Fatalf("adaptive scenario failed the acceptance bounds: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"recovery scenario:", "frozen", "adaptive", "oracle", "rehost block"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep adapt.RecoveryReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Adaptive.Adopts == 0 || rep.FrozenOverAdaptiveP99 < 2 {
		t.Fatalf("report does not show recovery: %+v", rep)
	}
}

func TestRunAdaptiveRejectsConflictingModes(t *testing.T) {
	for _, args := range [][]string{
		{"-adaptive", "-load"},
		{"-adaptive", "-straggler", "0=10"},
		{"-adaptive", "-fail", "0"},
		{"-adaptive", "-replicas", "2"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: expected a mode-conflict error", args)
		}
	}
}

// TestAdaptCheckRejectsFailedMigration: a report that is otherwise within
// every bound still fails -adapt-check when the controller recorded a failed
// migration.
func TestAdaptCheckRejectsFailedMigration(t *testing.T) {
	rep := &adapt.RecoveryReport{AdaptiveOverOracleP99: 1, FrozenOverAdaptiveP99: 10, MaxBlocksPerDevice: 1}
	if err := checkAdaptReport(rep); err != nil {
		t.Fatalf("clean report rejected: %v", err)
	}
	rep.FailedMigrations = 1
	if err := checkAdaptReport(rep); err == nil || !strings.Contains(err.Error(), "migration") {
		t.Fatalf("a failed migration passed -adapt-check: %v", err)
	}
}
