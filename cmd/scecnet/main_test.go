package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/transport"
)

// TestDemoEndToEnd is the smallest end-to-end run: one loopback device per
// coded block, one verified A·x and one verified A·X.
func TestDemoEndToEnd(t *testing.T) {
	var out strings.Builder
	args := []string{"fleet", "-replicas", "1", "-standbys", "0", "-queries", "1", "-batch", "4",
		"-m", "40", "-l", "8", "-k", "5", "-seed", "4"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"loopback devices (1 replicas per block + 0 standbys)", "plan:",
		"served 1 queries; every decoded A·x verified exactly", "verified the batch A·X (4 columns) exactly"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// startDevices launches n external devices the way `scecnet device` does.
func startDevices(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for range n {
		srv, err := transport.NewDeviceServer[uint64](scec.PrimeField(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	return addrs
}

func TestDriveAgainstManagedFleet(t *testing.T) {
	var out strings.Builder
	args := []string{"fleet", "-devices", strings.Join(startDevices(t, 4), ","), "-m", "30", "-l", "6", "-batch", "3"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"external devices (one replica per block)",
		"every decoded A·x verified exactly", "verified the batch A·X (3 columns) exactly"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestFleetExternalDevicesCollusion serves the t = 2 tier on running
// devices and verifies both the vector stream and the batch.
func TestFleetExternalDevicesCollusion(t *testing.T) {
	var out strings.Builder
	args := []string{"fleet", "-devices", strings.Join(startDevices(t, 4), ","), "-m", "30", "-l", "6",
		"-t", "2", "-batch", "3", "-queries", "2"}
	if err := run(args, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"t=2", "served 2 queries; every decoded A·x verified exactly",
		"verified the batch A·X (3 columns) exactly"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestFleetDevicesFlagConflicts: a flag that only shapes a launched loopback
// fleet is an error naming it under -devices, never silently ignored.
func TestFleetDevicesFlagConflicts(t *testing.T) {
	devices := "127.0.0.1:1,127.0.0.1:2"
	for _, tc := range []struct{ args []string }{
		{[]string{"-k", "4"}},
		{[]string{"-replicas", "2"}},
		{[]string{"-standbys", "0"}},
		{[]string{"-inject-faults"}},
		{[]string{"-inject-one"}},
	} {
		var out strings.Builder
		err := run(append([]string{"fleet", "-devices", devices}, tc.args...), &out)
		if err == nil || !strings.Contains(err.Error(), tc.args[0]+" ") || !strings.Contains(err.Error(), "-devices") {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.args[0])
		}
	}
}

// TestRetiredRoles: demo and drive are spellings of fleet now, not roles.
func TestRetiredRoles(t *testing.T) {
	for _, role := range []string{"demo", "drive"} {
		var out strings.Builder
		err := run([]string{role}, &out)
		if err == nil || !strings.Contains(err.Error(), "unknown role") || !strings.Contains(err.Error(), "device, fleet, load, or debug") {
			t.Errorf("%s: err = %v, want the unknown-role error listing device, fleet, load, debug", role, err)
		}
	}
}

// TestUnseededFleetMasksDiffer: without -seed the masking rows come from
// crypto/rand, so two runs over the same devices store different coded
// blocks; with -seed they store the same ones, bit for bit. The workload
// (costs, A) comes from the seed either way, so the plan does not move.
func TestUnseededFleetMasksDiffer(t *testing.T) {
	addrs := startDevices(t, 4)
	client := transport.Client[uint64]{F: scec.PrimeField()}
	// stored reads column 0 of every stored block B_j·T back off the devices.
	stored := func(extra ...string) string {
		var out strings.Builder
		args := append([]string{"fleet", "-devices", strings.Join(addrs, ","), "-m", "20", "-l", "4", "-queries", "1"}, extra...)
		if err := run(args, &out); err != nil {
			t.Fatalf("%v\n%s", err, out.String())
		}
		var cols []string
		for _, addr := range addrs {
			if y, err := client.Compute(t.Context(), addr, []uint64{1, 0, 0, 0}); err == nil {
				cols = append(cols, fmt.Sprint(y))
			}
		}
		if len(cols) < 2 {
			t.Fatalf("only %d devices hold a block", len(cols))
		}
		return strings.Join(cols, " ")
	}
	if a, b := stored(), stored(); a == b {
		t.Errorf("two unseeded runs stored identical coded blocks %s", a)
	}
	if a, b := stored("-seed", "1"), stored("-seed", "1"); a != b {
		t.Errorf("two -seed 1 runs stored different coded blocks:\n%s\n%s", a, b)
	}
}

func TestFleetEndToEndWithFaults(t *testing.T) {
	var out strings.Builder
	args := []string{"fleet", "-m", "30", "-l", "6", "-k", "4", "-replicas", "2",
		"-standbys", "1", "-queries", "4", "-inject-faults", "-seed", "3"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"replicas per block",
		"injected faults: killed the first replica",
		"served 4 queries; every decoded A·x verified exactly",
		"fleet summary:",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestFleetFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"fleet", "-replicas", "0"}, &out); err == nil {
		t.Error("zero replicas should error")
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Error("no args should error")
	}
	if err := run([]string{"bogus"}, &out); err == nil {
		t.Error("unknown role should error")
	}
	if err := run([]string{"fleet", "-devices", "only-one:1"}, &out); err == nil {
		t.Error("single-device -devices should error")
	}
}

func TestSplitAddrs(t *testing.T) {
	got := splitAddrs(" a:1, ,b:2,")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("splitAddrs = %v", got)
	}
}

// TestFleetCoalesceMaxAppliesToGroupCommit: -coalesce-max without a window
// is no longer dropped: it bounds the fleet's group commit and runs the
// query stream concurrently, and every answer still verifies.
func TestFleetCoalesceMaxAppliesToGroupCommit(t *testing.T) {
	var out strings.Builder
	args := []string{"fleet", "-m", "24", "-l", "6", "-k", "4", "-replicas", "1", "-standbys", "0",
		"-queries", "16", "-coalesce-max", "4", "-seed", "7"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "served 16 queries; every decoded A·x verified exactly") {
		t.Fatalf("output:\n%s", got)
	}
}

// TestFleetRetiredFlags: the fleet role always serves a fleet and always
// group-commits, so its in-process backend and its coalescing window are
// gone as flags, not ignored.
func TestFleetRetiredFlags(t *testing.T) {
	for _, args := range [][]string{{"-backend", "local"}, {"-coalesce-window", "5ms"}} {
		var out strings.Builder
		err := run(append([]string{"fleet"}, args...), &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("fleet %v: err = %v, want an undefined flag", args, err)
		}
	}
}

// engineSummaryChild is the positional argument that makes the test binary
// run TestFleetEngineSummaryNamesServingBackends's fleet in a fresh process.
const engineSummaryChild = "engine-summary-child"

// TestFleetEngineSummaryNamesServingBackends checks the engine summary names
// the fleet alone: the local bind Deploy makes before Serve never
// dispatches. The summary reads the process-wide registry, which the other
// tests of this package also record into, so the run happens in a fresh
// copy of the test binary, as one `scecnet fleet` process would.
func TestFleetEngineSummaryNamesServingBackends(t *testing.T) {
	args := []string{"fleet", "-replicas", "1", "-standbys", "0", "-queries", "1", "-batch", "2",
		"-m", "20", "-l", "4", "-k", "4", "-seed", "6"}
	if flag.Arg(0) == engineSummaryChild {
		if err := run(args, os.Stdout); err != nil {
			t.Fatal(err)
		}
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestFleetEngineSummaryNamesServingBackends$", engineSummaryChild).CombinedOutput()
	if err != nil {
		t.Fatalf("%v:\n%s", err, out)
	}
	if !strings.Contains(string(out), "engine summary: backends=fleet ") {
		t.Errorf("engine summary should name only the fleet backend:\n%s", out)
	}
}
