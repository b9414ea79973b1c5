package main

import (
	"os"
	"strings"
	"testing"
)

// TestLoadIsRealSocketGateOnly: scecnet load sweeps the 3-device loopback
// fleet, prints its table and SLO verdict, writes no report file, and fails
// on a violated SLO; the virtual sweep's flags are gone (it is
// `experiments -fig load`).
func TestLoadIsRealSocketGateOnly(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	var out strings.Builder
	if err := run([]string{"load", "-rates", "50", "-step-requests", "20", "-slo", "p99<=250ms@50"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"fleet: 3 real-socket devices", "fleet-3dev: knee at", "SLO p99<=250ms@50: measured", "— OK"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("scecnet load wrote files (%v): %v", err, entries)
	}

	out.Reset()
	err := run([]string{"load", "-rates", "50", "-step-requests", "20", "-slo", "p99<=1ns@50"}, &out)
	if err == nil || !strings.Contains(out.String(), "VIOLATED") {
		t.Errorf("a violated SLO must print VIOLATED and fail: err = %v\n%s", err, out.String())
	}

	for _, args := range [][]string{{"-sim-devices", "10"}, {"-out", "load.json"}, {"-md", "load.md"}} {
		err := run(append([]string{"load"}, args...), &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("load %v: err = %v, want an undefined flag", args, err)
		}
	}
}
