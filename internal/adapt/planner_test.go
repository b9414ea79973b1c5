package adapt

import (
	"strings"
	"testing"
	"time"
)

// uniformPool builds k hosts of base cost 1. With uniform costs every plan of
// the Lemma 2 shape costs m+r, so TA2's optimum is fully predictable: the
// minimum feasible r over the cheapest devices.
func uniformPool(k int) []Host {
	hosts := make([]Host, k)
	for j := range hosts {
		hosts[j] = Host{Addr: "h" + string(rune('a'+j)), Base: 1}
	}
	return hosts
}

func TestNewPlannerValidation(t *testing.T) {
	ok := uniformPool(3)
	cases := []struct {
		name  string
		m     int
		hosts []Host
	}{
		{"m too small", 0, ok},
		{"one host", 10, ok[:1]},
		{"empty addr", 10, []Host{{Addr: "a", Base: 1}, {Addr: "", Base: 1}}},
		{"dup addr", 10, []Host{{Addr: "a", Base: 1}, {Addr: "a", Base: 1}}},
		{"bad base", 10, []Host{{Addr: "a", Base: 1}, {Addr: "b", Base: -1}}},
	}
	for _, c := range cases {
		if _, err := NewPlanner(c.m, c.hosts, 0.05, time.Second); err == nil {
			t.Errorf("%s: NewPlanner accepted invalid input", c.name)
		}
	}
	if _, err := NewPlanner(10, ok, 0.05, time.Second); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
}

func TestPlannerInitialPlan(t *testing.T) {
	p, err := NewPlanner(100, uniformPool(12), 0.05, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Decide(0, nil, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Adopt || d.Reason != "initial plan" {
		t.Fatalf("initial decide = %+v, want adoption", d)
	}
	// Uniform costs: cost = m+r, minimized at r = ⌈m/(k−1)⌉ = ⌈100/11⌉ = 10,
	// which forces i = 11 (last block m−(i−2)r ∈ (0, r]).
	if d.R != 10 || d.I != 11 {
		t.Fatalf("initial plan r=%d i=%d, want r=10 i=11", d.R, d.I)
	}
	if len(d.Target) != d.I {
		t.Fatalf("target has %d hosts, want %d", len(d.Target), d.I)
	}
	seen := map[string]bool{}
	for _, addr := range d.Target {
		if addr == "" || seen[addr] {
			t.Fatalf("target reuses or omits a host: %v (Def. 2 needs one block per device)", d.Target)
		}
		seen[addr] = true
	}
}

// currentFrom converts an adopted target into the live placement it realizes.
func currentFrom(t *testing.T, p *Planner, d Decision) []BlockHost {
	t.Helper()
	if len(d.Target) == 0 {
		t.Fatal("decision has no target")
	}
	// Lemma 2 shape: blocks 0..i−2 hold r rows, the last holds the remainder.
	cur := make([]BlockHost, len(d.Target))
	for b, addr := range d.Target {
		rows := d.R
		if b == len(d.Target)-1 {
			rows = p.m - (len(d.Target)-2)*d.R
		}
		cur[b] = BlockHost{Block: b, Addr: addr, Rows: rows}
	}
	return cur
}

// boundOf is the bindings a substrate reports when the placement has never
// changed under the current encoding: every host bound to the block it holds.
func boundOf(cur []BlockHost) map[string]int {
	bound := make(map[string]int, len(cur))
	for _, b := range cur {
		bound[b.Addr] = b.Block
	}
	return bound
}

func TestPlannerSteadyStateHolds(t *testing.T) {
	p, _ := NewPlanner(100, uniformPool(12), 0.05, 5*time.Second)
	d0, _ := p.Decide(0, nil, nil, nil, false)
	cur := currentFrom(t, p, d0)
	d1, err := p.Decide(time.Second, nil, cur, boundOf(cur), false)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Adopt {
		t.Fatalf("replan on an optimal placement adopted: %+v", d1)
	}
	if !strings.Contains(d1.Reason, "threshold") {
		t.Fatalf("hold reason = %q, want improvement-threshold hold", d1.Reason)
	}
}

func TestPlannerStragglerSingleMove(t *testing.T) {
	p, _ := NewPlanner(100, uniformPool(12), 0.05, 5*time.Second)
	d0, _ := p.Decide(0, nil, nil, nil, false)
	cur := currentFrom(t, p, d0)
	slow := cur[0].Addr
	// Decide after the initial adoption's cooldown has expired.
	d1, err := p.Decide(10*time.Second, map[string]float64{slow: 10}, cur, boundOf(cur), false)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Adopt {
		t.Fatalf("10× straggler not evicted: %+v", d1)
	}
	if d1.Reshape {
		t.Fatalf("straggler eviction reshaped instead of rehosting: %+v", d1)
	}
	// Move-minimizing matching: evicting one device of an interchangeable
	// row class is exactly one move; every other block stays put.
	if len(d1.Moves) != 1 {
		t.Fatalf("moves = %v, want exactly 1", d1.Moves)
	}
	if d1.Moves[0].From != slow {
		t.Fatalf("moved %s, want the straggler %s", d1.Moves[0].From, slow)
	}
	for _, addr := range d1.Target {
		if addr == slow {
			t.Fatalf("straggler still in target %v", d1.Target)
		}
	}
}

func TestPlannerHysteresisBelowThreshold(t *testing.T) {
	p, _ := NewPlanner(100, uniformPool(12), 0.05, 5*time.Second)
	d0, _ := p.Decide(0, nil, nil, nil, false)
	cur := currentFrom(t, p, d0)
	// A 4% slowdown on one 10-row block moves the objective well under the
	// 5% adoption margin: 110.4 vs the 110 optimum.
	d1, err := p.Decide(time.Second, map[string]float64{cur[0].Addr: 1.04}, cur, boundOf(cur), false)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Adopt {
		t.Fatalf("sub-threshold improvement adopted: %+v", d1)
	}
}

func TestPlannerCooldownAndUrgentBypass(t *testing.T) {
	p, _ := NewPlanner(100, uniformPool(12), 0.05, 10*time.Second)
	d0, _ := p.Decide(0, nil, nil, nil, false)
	cur := currentFrom(t, p, d0)

	d1, _ := p.Decide(20*time.Second, map[string]float64{cur[0].Addr: 10}, cur, boundOf(cur), false)
	if !d1.Adopt {
		t.Fatalf("first eviction held: %+v", d1)
	}
	cur[0].Addr = d1.Target[0] // apply the move

	// A second fault inside the cooldown window: improvement passes, the
	// cooldown holds it...
	factors := map[string]float64{cur[1].Addr: 10}
	d2, _ := p.Decide(22*time.Second, factors, cur, boundOf(cur), false)
	if d2.Adopt || !strings.Contains(d2.Reason, "cooldown") {
		t.Fatalf("cooldown did not hold: %+v", d2)
	}
	// ...unless the incumbent host is unhealthy (urgent bypasses cooldown,
	// never the margin).
	d3, _ := p.Decide(23*time.Second, factors, cur, boundOf(cur), true)
	if !d3.Adopt || !strings.Contains(d3.Reason, "urgent") {
		t.Fatalf("urgent replan held: %+v", d3)
	}
}

func TestPlannerUnknownHostErrors(t *testing.T) {
	p, _ := NewPlanner(100, uniformPool(12), 0.05, time.Second)
	_, err := p.Decide(0, nil, []BlockHost{{Block: 0, Addr: "stranger", Rows: 10}}, nil, false)
	if err == nil {
		t.Fatal("placement outside the pool accepted")
	}
}

// unevenPlanner plans m=7 over exactly four hosts: r=3, blocks of 3, 3, 3 and
// 1 rows. With no spare host, re-pricing can only permute who holds what.
func unevenPlanner(t *testing.T) (*Planner, []BlockHost) {
	t.Helper()
	p, err := NewPlanner(7, uniformPool(4), 0.05, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := p.Decide(0, nil, nil, nil, false)
	if err != nil || d0.R != 3 || d0.I != 4 {
		t.Fatalf("initial plan = %+v (err %v), want r=3 over 4 hosts", d0, err)
	}
	return p, currentFrom(t, p, d0)
}

// TestPlannerSwapBecomesReshape pins the one placement rule on the decision
// side: when the cheaper plan exchanges the blocks of two occupied hosts,
// either rehost would hand a device a second block of the same encoding, so
// the planner must ask for a re-encode at the same r instead of emitting moves.
func TestPlannerSwapBecomesReshape(t *testing.T) {
	p, cur := unevenPlanner(t)
	// The host of a 3-row block becomes 2× dearer (13 → 11 at r=3; dropping
	// it for r=4 over three hosts also costs 11, and same-r wins ties): the
	// optimum gives it the 1-row block and that block's host its 3 rows — a
	// pure swap.
	d, err := p.Decide(10*time.Second, map[string]float64{cur[0].Addr: 2}, cur, boundOf(cur), false)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Adopt || !d.Reshape || d.R != 3 || len(d.Moves) != 0 {
		t.Fatalf("swap decision = %+v, want an adopted reshape at r=3 with no moves", d)
	}
	if d.Target[3] != cur[0].Addr || d.Target[0] == cur[0].Addr {
		t.Fatalf("reshape target %v does not give the dear host %s the 1-row block", d.Target, cur[0].Addr)
	}
	if !strings.Contains(d.Reason, "re-encoding") {
		t.Fatalf("reason %q does not say why a same-r plan reshapes", d.Reason)
	}
}

// TestPlannerRespectsVacatedBindings covers the other inadmissible target: a
// free host that was sent a block earlier in this encoding takes that block
// back or nothing.
func TestPlannerRespectsVacatedBindings(t *testing.T) {
	p, _ := NewPlanner(100, uniformPool(12), 0.05, time.Second)
	d0, _ := p.Decide(0, nil, nil, nil, false)
	cur := currentFrom(t, p, d0)
	spare := p.Hosts()[11].Addr // the one pool host the initial plan left out

	bound := boundOf(cur)
	bound[spare] = 3 // block 3 once lived there
	d, err := p.Decide(10*time.Second, map[string]float64{cur[3].Addr: 10}, cur, bound, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Move{{Block: 3, From: cur[3].Addr, To: spare}}; !d.Adopt || d.Reshape || len(d.Moves) != 1 || d.Moves[0] != want[0] {
		t.Fatalf("decision = %+v, want block 3 moved back onto its former host", d)
	}

	d, err = p.Decide(20*time.Second, map[string]float64{cur[5].Addr: 10}, cur, bound, false)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Adopt || !d.Reshape || d.R != d0.R || len(d.Moves) != 0 {
		t.Fatalf("decision = %+v, want a same-r reshape: the only spare host is bound to block 3", d)
	}
}
