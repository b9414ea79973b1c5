package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFleetIncidentDemo runs the full incident pipeline the Makefile's
// incident-demo target ships: a fleet with one replica per block, a full
// outage of block 0, adaptive rehost as the only recovery path, and the
// flight-recorder watchdog capturing + validating one bundle.
func TestFleetIncidentDemo(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second end-to-end incident capture")
	}
	dir := t.TempDir()
	summary := filepath.Join(dir, "incident-demo.json")
	var out strings.Builder
	args := []string{"fleet", "-m", "30", "-l", "8", "-k", "2", "-replicas", "1", "-standbys", "1",
		"-queries", "8", "-timeout", "500ms", "-seed", "2",
		"-adaptive", "-replan-every", "100ms", "-no-repair", "-inject-one",
		"-incident-dir", filepath.Join(dir, "incidents"),
		"-watch", "journal:replan-adopt>=1/60s",
		"-incident-summary", summary,
	}
	if err := run(args, &out); err != nil {
		t.Fatalf("incident demo failed: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"flight recorder armed",
		"injected outage: killed all 1 replica(s) of block 0",
		"block 0 recovered: post-outage query verified exactly",
		"flight recorder: 1 incident bundle(s)",
		"incident summary written to",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	b, err := os.ReadFile(summary)
	if err != nil {
		t.Fatal(err)
	}
	var s incidentSummary
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if !s.OK {
		t.Fatalf("summary reports an incomplete bundle: %+v", s.Checks)
	}
	if s.JournalEvents["breaker-open"] == 0 || s.JournalEvents["replan-adopt"] == 0 || s.JournalEvents["rehost-ok"] == 0 {
		t.Fatalf("journal events missing the outage→recovery arc: %v", s.JournalEvents)
	}
}

// TestFleetIncidentFlagValidation covers the flag interlocks the incident
// demo relies on.
func TestFleetIncidentFlagValidation(t *testing.T) {
	cases := [][]string{
		{"fleet", "-inject-one", "-inject-faults"},
		{"fleet", "-inject-one", "-coalesce-max", "8"},
		{"fleet", "-inject-one", "-coalesce-max", "4"},
		{"fleet", "-incident-summary", "x.json"},
		{"fleet", "-incident-dir", "/tmp/x", "-watch", "journal:bogus>=1/10s", "-m", "10", "-l", "4", "-k", "2", "-queries", "0"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("%v unexpectedly succeeded", args)
		}
	}
}
