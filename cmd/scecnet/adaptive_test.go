package main

import (
	"strings"
	"testing"
)

// TestFleetAdaptiveEndToEnd runs the fleet subcommand with the closed-loop
// control plane on: every query still verifies exactly and the adaptive
// summary line reports control activity.
func TestFleetAdaptiveEndToEnd(t *testing.T) {
	var out strings.Builder
	args := []string{"fleet", "-m", "30", "-l", "6", "-k", "4", "-standbys", "2",
		"-queries", "6", "-adaptive", "-replan-every", "20ms", "-seed", "3"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"served 6 queries; every decoded A·x verified exactly",
		"adaptive summary: replans=",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}
