package main

import (
	"strings"
	"testing"
	"time"
)

// smokeSchedule is the driver's schedule shrunk to 100 ms slices.
func smokeSchedule(s spec, traced bool) schedule {
	sch := schedule{setups: 2, maxSetups: 2, warmup: 100 * time.Millisecond, slice: 100 * time.Millisecond}
	if traced {
		sch.ladderIters = max(10, s.ladderIters/20)
		sch.tracedSlice = 100 * time.Millisecond
		sch.journalOps = 1000
		// The attack harness needs seconds of rank computation on the large
		// shape; the smoke run audits the other four.
		sch.audit = s.m < 4000
	}
	return sch
}

// Every workload runs end to end, both ways, verifies every answer, and
// reports exactly the declared metric names. The traced run must mark the
// layers a workload bypasses as not applicable.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(s, 1, smokeSchedule(s, traced), traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed", s.name, traced, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", s.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s traced=%v: %s missing", s.name, traced, d.name)
					continue
				}
				bypassed := strings.HasPrefix(d.name, "transport.") || strings.HasPrefix(d.name, "fleet.")
				if traced && bypassed && m.NA != s.local() {
					t.Errorf("%s: %s not-applicable = %v, want %v", s.name, d.name, m.NA, s.local())
				}
				if !traced && (m.NA || m.Value <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v (na=%v), want > 0", s.name, d.name, m.Value, m.NA)
				}
			}
		}
	}
}
