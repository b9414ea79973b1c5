package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestRunVerifiesPipeline(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-m", "100", "-l", "16", "-k", "6", "-seed", "2"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"plan:", "totals:", "decoded result verified"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunWithStraggler(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-m", "60", "-l", "8", "-k", "5", "-straggler", "0=100"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "decoded result verified") {
		t.Fatal("straggler run should still verify")
	}
}

func TestRunWithForcedFailure(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-m", "60", "-l", "8", "-k", "5", "-fail", "0"}, &out, io.Discard)
	if err == nil {
		t.Fatal("forced failure should abort the run")
	}
	if !strings.Contains(out.String(), "FAILED") {
		t.Fatalf("report should flag the failed device:\n%s", out.String())
	}
}

func TestRunWithReplication(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-m", "60", "-l", "8", "-k", "5", "-replicas", "3", "-straggler", "0=100"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "replication x3") || !strings.Contains(got, "storage overhead 3.0x") {
		t.Fatalf("replication summary missing:\n%s", got)
	}
	if !strings.Contains(got, "decoded result verified") {
		t.Fatal("replicated run should verify")
	}
}

// TestRunWithReplicationUnderCollusion is the -t 2 -replicas 2 row: replicas
// hold the same B_j·T whatever the code, so the Cauchy tier replicates too.
func TestRunWithReplicationUnderCollusion(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-m", "60", "-l", "8", "-k", "6", "-t", "2", "-replicas", "2"}, &out, io.Discard); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"t=2", "replication x2", "storage overhead 2.0x", "decoded result verified"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-m", "60", "-l", "8", "-k", "5", "-fail", "99"},
		{"-m", "60", "-l", "8", "-k", "5", "-straggler", "bogus"},
		{"-m", "60", "-l", "8", "-k", "5", "-straggler", "99=2"},
		{"-m", "60", "-l", "8", "-k", "5", "-straggler", "x=2"},
		{"-m", "60", "-l", "8", "-k", "5", "-straggler", "0=x"},
		{"-m", "60", "-l", "8", "-k", "5", "-straggler", "0=NaN"},
		{"-m", "60", "-l", "8", "-k", "5", "-straggler", "0=+Inf"},
		{"-m", "60", "-l", "8", "-k", "5", "-replicas", "0"},
		{"-m", "60", "-l", "8", "-k", "5", "-replicas", "-3"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out, io.Discard); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
	// The load sweep and the recovery scenario run from cmd/experiments,
	// and every run is simulated: there is no in-process backend to pick.
	for _, args := range [][]string{{"-load"}, {"-adaptive"}, {"-backend", "local"}} {
		var out strings.Builder
		err := run(args, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("args %v: err = %v, want an undefined flag", args, err)
		}
	}
}

// TestApplyStragglers drives -straggler through run: an in-range device is
// slowed (its result arrives later than in the same run without it) and an
// out-of-range one is refused once the deployment's device count is known.
func TestApplyStragglers(t *testing.T) {
	base := []string{"-m", "60", "-l", "8", "-k", "5", "-seed", "3"}
	var plain, slowed strings.Builder
	if err := run(base, &plain, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-straggler", "1=4.5"), &slowed, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(slowed.String(), "decoded result verified") {
		t.Fatalf("straggler run should still verify:\n%s", slowed.String())
	}
	// row returns device dev's line of the printed timeline.
	row := func(out string, dev int) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, fmt.Sprintf("%6d ", dev)) {
				return line
			}
		}
		t.Fatalf("no timeline row for device %d:\n%s", dev, out)
		return ""
	}
	if row(slowed.String(), 1) == row(plain.String(), 1) || row(slowed.String(), 0) != row(plain.String(), 0) {
		t.Fatalf("-straggler 1=4.5 should slow device 1 only:\n%s\n%s", plain.String(), slowed.String())
	}
	var out strings.Builder
	err := run(append(base, "-straggler", "99=2"), &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "straggler device 99 out of range") {
		t.Fatalf("out-of-range straggler: err = %v", err)
	}
}
