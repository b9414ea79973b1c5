package experiments

import (
	"os"
	"strings"
	"testing"
	"time"

	"github.com/scec/scec/internal/sim"
)

func TestDelaySweepShape(t *testing.T) {
	res, err := DelaySweep(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 9 {
		t.Fatalf("%d cells, want 9 (3 replication factors × 3 straggler probs)", len(res.Points))
	}

	byCell := map[[2]int]DelayPoint{}
	for _, p := range res.Points {
		byCell[[2]int{p.Replicas, int(p.StragglerProb * 10)}] = p
	}

	// Replication lifts the success rate under the fixed failure model.
	for _, ps := range []int{0, 2, 5} {
		r1, r3 := byCell[[2]int{1, ps}], byCell[[2]int{3, ps}]
		if r3.SuccessRate < r1.SuccessRate {
			t.Fatalf("straggle=%d: success rate fell with replication: %g -> %g", ps, r1.SuccessRate, r3.SuccessRate)
		}
		// The trials it lifts are rescued by a later attempt, which is what
		// raises the mean; the typical (median) trial is no slower.
		if r3.RescuedShare <= 0 || r3.MedianCompletion > r1.MedianCompletion {
			t.Fatalf("straggle=%d: x3 rescued %g of trials at median %v, x1 median %v", ps, r3.RescuedShare, r3.MedianCompletion, r1.MedianCompletion)
		}
	}
	// Triple replication should be near-perfect at 3% per-replica failures:
	// the per-block failure probability is (0.03)³ ≈ 3e-5.
	if byCell[[2]int{3, 0}].SuccessRate < 0.99 {
		t.Fatalf("3-way replication success rate = %g, want ≥ 0.99", byCell[[2]int{3, 0}].SuccessRate)
	}
	// Every cell is a mean over cold sessions, whose leaders hedge at their
	// cold prior, twice the modelled round trip 2·Latency: no trial beats an
	// unstraggled round (the replicas = 1, no-straggler cell, whose trials
	// all take that long), and none outlasts a 10× round — at most
	// delayStraggle times an unstraggled one, since a straggler slows only
	// its compute — after the hedges to its last replica.
	nominal := byCell[[2]int{1, 0}].MeanCompletion
	prior := 2 * 2 * sim.DefaultProfile().Latency
	for _, p := range res.Points {
		hi := time.Duration(delayStraggle*float64(nominal)) + time.Duration(p.Replicas-1)*prior
		if p.MeanCompletion < nominal || p.MeanCompletion > hi {
			t.Fatalf("x%d straggle=%g: mean completion %v, want in [%v, %v]", p.Replicas, p.StragglerProb, p.MeanCompletion, nominal, hi)
		}
	}
	// Storage overhead equals the replication factor.
	for _, p := range res.Points {
		if p.SuccessRate > 0 && p.StorageOverhead != float64(p.Replicas) {
			t.Fatalf("overhead %g != replicas %d", p.StorageOverhead, p.Replicas)
		}
	}
}

func TestWriteDelayMarkdown(t *testing.T) {
	res, err := DelaySweep(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var md strings.Builder
	if err := WriteDelayMarkdown(&md, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "replication vs stragglers") {
		t.Fatal("markdown missing title")
	}
	if strings.Count(md.String(), "\n| ") < 9 {
		t.Fatalf("markdown should contain 9 data rows:\n%s", md.String())
	}
}

// TestDelayMatchesCommittedMarkdown pins results/delay.md in tier-1: the
// default-config study renders the committed file byte for byte.
func TestDelayMatchesCommittedMarkdown(t *testing.T) {
	res, err := DelaySweep(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var md strings.Builder
	if err := WriteDelayMarkdown(&md, res); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../results/delay.md")
	if err != nil {
		t.Fatal(err)
	}
	if md.String() != string(want) {
		t.Fatalf("delay study no longer reproduces results/delay.md:\n%s", md.String())
	}
}
