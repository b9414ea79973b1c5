// Package testenv tells tests about the build they run in. Every
// allocation-budget test in the repository consults the one constant here:
// the race detector instruments allocations, so testing.AllocsPerRun and
// runtime.MemStats deltas mean nothing under -race and those tests skip.
package testenv

import "testing"

// SkipAllocsUnderRace skips an allocation-counting test when the race
// detector is on.
func SkipAllocsUnderRace(t testing.TB) {
	t.Helper()
	if Race {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}
