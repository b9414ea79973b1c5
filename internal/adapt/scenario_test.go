package adapt

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/scec/scec/internal/alloc"
	"github.com/scec/scec/internal/loadgen"
)

// TestScenarioRecovery is the acceptance guard for the adaptive control
// plane: the default 1000-device virtual-clock scenario (chronic 5×
// straggler at 10s, 8s outage at 20s, seed 1) must show the adaptive arm
// recovering to near-oracle steady-state tails while the frozen baseline
// stays degraded — with zero failed queries and without flapping.
func TestScenarioRecovery(t *testing.T) {
	rep, err := RunScenario(ScenarioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range []ArmResult{rep.Adaptive, rep.Frozen, rep.Oracle} {
		if arm.FailedQueries != 0 {
			t.Errorf("%s arm failed %d queries; migrations must never drop a request", arm.Name, arm.FailedQueries)
		}
		if arm.Requests == 0 {
			t.Errorf("%s arm served no requests", arm.Name)
		}
	}
	if rep.AdaptiveOverOracleP99 > 1.5 {
		t.Errorf("adaptive steady p99 is %.2f× oracle (%.1fms vs %.1fms), want ≤ 1.5×",
			rep.AdaptiveOverOracleP99, rep.Adaptive.SteadyP99Ms, rep.Oracle.SteadyP99Ms)
	}
	if rep.FrozenOverAdaptiveP99 < 2 {
		t.Errorf("frozen steady p99 is only %.2f× adaptive (%.1fms vs %.1fms), want ≥ 2×",
			rep.FrozenOverAdaptiveP99, rep.Frozen.SteadyP99Ms, rep.Adaptive.SteadyP99Ms)
	}
	if rep.Adaptive.BlocksMoved < 1 {
		t.Error("adaptive arm moved no blocks; the straggler was never evicted")
	}
	// Hysteresis: the straggler and the outage each warrant one adoption
	// (plus at most a post-outage cleanup); anything more is flapping.
	if rep.Adaptive.Adopts < 2 || rep.Adaptive.Adopts > 4 {
		t.Errorf("adaptive arm adopted %d plans, want 2–4 (one per fault, no flapping); events:\n%s",
			rep.Adaptive.Adopts, strings.Join(rep.Events, "\n"))
	}
	if rep.Adaptive.Replans < 50 {
		t.Errorf("adaptive arm ran only %d control cycles over %dms", rep.Adaptive.Replans, rep.DurationMs)
	}
	// Migration-cost awareness: evicting two faulty devices must not reshape
	// the world. The same-r preference keeps r stable and the move count a
	// handful, not O(i).
	if rep.Adaptive.FinalR != rep.Frozen.FinalR {
		t.Errorf("adaptive finalR = %d, frozen = %d; straggler eviction should not have reshaped",
			rep.Adaptive.FinalR, rep.Frozen.FinalR)
	}
	if rep.Adaptive.BlocksMoved > 8 {
		t.Errorf("adaptive arm moved %d blocks; matching should keep this to a handful", rep.Adaptive.BlocksMoved)
	}
}

// TestScenarioDeterminism pins that the report is a pure function of the
// config: two runs are bit-identical (the property adapt-check relies on).
func TestScenarioDeterminism(t *testing.T) {
	cfg := ScenarioConfig{Devices: 200, M: 1024, Duration: 20 * time.Second, QPS: 50}
	a, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("same config, different reports:\n%s\n%s", ja, jb)
	}
}

// TestScenarioReshape starts the deployment at a deliberately bad coding
// parameter and disables all faults: the only thing the control plane can
// discover is that a different r is worth a full reshape — exercising the
// drain-and-swap path end to end on the virtual clock.
func TestScenarioReshape(t *testing.T) {
	cfg := ScenarioConfig{
		Devices: 200, M: 1024, Duration: 20 * time.Second, QPS: 50,
		StragglerAt: -1, OutageAt: -1,
		InitialR: 512,
	}
	// Precondition: the forced plan is genuinely bad enough to clear the
	// adoption margin against the TA2 optimum.
	base := make([]float64, 200)
	for j := range base {
		base[j] = 1 + float64(j)/199
	}
	forced, err := alloc.PlanForR(alloc.Instance{M: 1024, Costs: base}, 512)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := alloc.TA2(alloc.Instance{M: 1024, Costs: base})
	if err != nil {
		t.Fatal(err)
	}
	if forced.Cost < opt.Cost*1.1 {
		t.Fatalf("precondition: forced r=512 costs %.1f vs optimum %.1f — not bad enough to test reshape", forced.Cost, opt.Cost)
	}

	rep, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adaptive.FailedQueries != 0 {
		t.Errorf("reshape dropped %d queries", rep.Adaptive.FailedQueries)
	}
	if rep.Adaptive.FinalR != opt.R {
		t.Errorf("adaptive finalR = %d, want the TA2 optimum %d (started at 512)", rep.Adaptive.FinalR, opt.R)
	}
	if rep.Frozen.FinalR != 512 {
		t.Errorf("frozen finalR = %d, want to stay at the forced 512", rep.Frozen.FinalR)
	}
	reshaped := false
	for _, ev := range rep.Events {
		if strings.Contains(ev, "reshape") {
			reshaped = true
		}
	}
	if !reshaped {
		t.Errorf("no reshape event; events:\n%s", strings.Join(rep.Events, "\n"))
	}
	if rep.Adaptive.FinalBaseCost >= rep.Frozen.FinalBaseCost {
		t.Errorf("reshape did not reduce the base-cost objective: adaptive %.1f vs frozen %.1f",
			rep.Adaptive.FinalBaseCost, rep.Frozen.FinalBaseCost)
	}
}

// TestScenarioReplay drives the straggler from a recorded per-device
// timeline (satellite of loadgen.Replay) instead of the built-in fault:
// the control plane must still find and evict the replayed straggler.
func TestScenarioReplay(t *testing.T) {
	replay := &loadgen.Replay{Devices: [][]loadgen.ReplayStep{
		0: {{At: 5 * time.Second, Factor: 6}},
	}}
	cfg := ScenarioConfig{
		Devices: 200, M: 1024, Duration: 30 * time.Second, QPS: 50,
		OutageAt: -1,
		Replay:   replay,
	}
	rep, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adaptive.FailedQueries+rep.Frozen.FailedQueries+rep.Oracle.FailedQueries != 0 {
		t.Error("replayed scenario dropped queries")
	}
	if rep.Adaptive.Adopts < 1 || rep.Adaptive.BlocksMoved < 1 {
		t.Errorf("replayed straggler never evicted: adopts=%d moved=%d events:\n%s",
			rep.Adaptive.Adopts, rep.Adaptive.BlocksMoved, strings.Join(rep.Events, "\n"))
	}
	if rep.AdaptiveOverOracleP99 > 1.5 {
		t.Errorf("adaptive steady p99 is %.2f× oracle under replay, want ≤ 1.5×", rep.AdaptiveOverOracleP99)
	}
	if rep.FrozenOverAdaptiveP99 < 2 {
		t.Errorf("frozen steady p99 is only %.2f× adaptive under replay, want ≥ 2×", rep.FrozenOverAdaptiveP99)
	}
}

func TestScenarioRejectsInvalidReplay(t *testing.T) {
	_, err := RunScenario(ScenarioConfig{Replay: &loadgen.Replay{Devices: [][]loadgen.ReplayStep{
		{{At: time.Second, Factor: 1}, {At: 0, Factor: 2}}, // out of order
	}}})
	if err == nil {
		t.Error("out-of-order replay accepted")
	}
}

// TestScenarioMatchesCommittedReport pins results/adapt.json in tier-1: the
// default scenario, marshalled exactly as `scecsim -adapt-out` writes it, is
// the committed file byte for byte (make adapt-check overwrites the file, so
// only a test can notice it moving).
func TestScenarioMatchesCommittedReport(t *testing.T) {
	rep, err := RunScenario(ScenarioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../results/adapt.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(append(got, '\n')) != string(want) {
		t.Fatalf("default scenario no longer reproduces results/adapt.json:\n%s", got)
	}
}

// refuseOnce interposes on the scenario's model substrate and refuses the
// first rehost the controller attempts.
type refuseOnce struct {
	Substrate
	refused []Move
}

func (r *refuseOnce) Rehost(ctx context.Context, block int, from, to string) error {
	if len(r.refused) == 0 {
		r.refused = append(r.refused, Move{Block: block, From: from, To: to})
		return errors.New("model: push refused")
	}
	return r.Substrate.Rehost(ctx, block, from, to)
}

// TestScenarioRunsController pins that the adaptive arm is the real
// Controller over a Substrate, not a copy of its cycle: a substrate that
// refuses one rehost produces a failed MigrationEvent — counted in the
// report, logged, and not counted as a moved block — and the controller
// re-decides the refused move on a later cycle.
func TestScenarioRunsController(t *testing.T) {
	clean, err := RunScenario(ScenarioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.FailedMigrations != 0 {
		t.Fatalf("the unwrapped model refused %d migrations", clean.FailedMigrations)
	}

	var sub *refuseOnce
	rep, err := runScenario(ScenarioConfig{}, func(model Substrate) Substrate {
		sub = &refuseOnce{Substrate: model}
		return sub
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.refused) != 1 {
		t.Fatalf("the wrapper saw no rehost to refuse; events:\n%s", strings.Join(rep.Events, "\n"))
	}
	if rep.FailedMigrations != 1 {
		t.Errorf("FailedMigrations = %d, want 1; events:\n%s", rep.FailedMigrations, strings.Join(rep.Events, "\n"))
	}
	mv := sub.refused[0]
	wantLine := fmt.Sprintf("rehost block %d %s → %s failed: model: push refused", mv.Block, mv.From, mv.To)
	moved := 0
	logged := false
	for _, ev := range rep.Events {
		logged = logged || strings.Contains(ev, wantLine)
		if strings.Contains(ev, "rehost block") && !strings.Contains(ev, "failed") {
			moved++
		}
	}
	if !logged {
		t.Errorf("no %q line in the log:\n%s", wantLine, strings.Join(rep.Events, "\n"))
	}
	// The refused move is not a moved block, and the controller re-decides it
	// on a later cycle, past the cooldown: one more adoption than the clean
	// run, and the same steady state in the end.
	if rep.Adaptive.BlocksMoved != moved {
		t.Errorf("BlocksMoved = %d, the log shows %d successful rehosts:\n%s", rep.Adaptive.BlocksMoved, moved, strings.Join(rep.Events, "\n"))
	}
	if rep.Adaptive.Adopts != clean.Adaptive.Adopts+1 {
		t.Errorf("adopts = %d, clean run %d; want exactly one retry:\n%s", rep.Adaptive.Adopts, clean.Adaptive.Adopts, strings.Join(rep.Events, "\n"))
	}
	if rep.AdaptiveOverOracleP99 > 1.5 || rep.MaxBlocksPerDevice != 1 {
		t.Errorf("after the retry: %.2f× oracle, %d blocks per device", rep.AdaptiveOverOracleP99, rep.MaxBlocksPerDevice)
	}
}

// TestAdaptCheckRejectsFailedMigration: a report that is otherwise within
// every bound still fails the recovery check when the controller recorded a
// failed migration.
func TestAdaptCheckRejectsFailedMigration(t *testing.T) {
	rep := &RecoveryReport{AdaptiveOverOracleP99: 1, FrozenOverAdaptiveP99: 10, MaxBlocksPerDevice: 1}
	if err := CheckRecovery(rep); err != nil {
		t.Fatalf("clean report rejected: %v", err)
	}
	rep.FailedMigrations = 1
	if err := CheckRecovery(rep); err == nil || !strings.Contains(err.Error(), "migration") {
		t.Fatalf("a failed migration passed the recovery check: %v", err)
	}
}
