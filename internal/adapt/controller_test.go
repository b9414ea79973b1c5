package adapt

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/obs"
)

// fakeSub is an in-memory Substrate: a placement, a free list, per-row
// latency, health and RTT maps, and scripted failures. It is safe for concurrent use so Start/Stop
// can run against it. It records every block sent to every address per
// encoding epoch and refuses nothing, so a controller that breaks the
// one-block-per-device rule shows up in audit rather than as an error.
type fakeSub struct {
	mu        sync.Mutex
	placement []BlockHost
	free      []string
	epochs    []views // epochs[len-1] is the current encoding's history
	epochR    []int   // the r each epoch was encoded at
	perRow    map[string]float64
	unhealthy map[string]bool
	rtt       map[string]time.Duration
	rehostErr map[int]error

	rehosts  []Move
	reshapes int
	reshapeR int
}

func (f *fakeSub) Placements() []BlockHost {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]BlockHost(nil), f.placement...)
}

func (f *fakeSub) Free() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.free...)
}

func (f *fakeSub) Bindings() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	bound := map[string]int{}
	for addr, blocks := range f.epochs[len(f.epochs)-1] {
		for b := range blocks {
			bound[addr] = b
		}
	}
	return bound
}

// audit checks the lifetime invariant over every epoch of the m=4 deployment.
func (f *fakeSub) audit(t *testing.T) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	for e, v := range f.epochs {
		code, err := coding.NewStructured[uint64](field.Prime{}, 4, f.epochR[e])
		if err != nil {
			t.Fatal(err)
		}
		v.audit(t, code)
	}
}

func (f *fakeSub) RowLatencies() map[string]float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return maps.Clone(f.perRow)
}

// measure records a device as the fleet's straggler record would once it
// holds enough samples: at perRow per coded row.
func (f *fakeSub) measure(device string, perRow time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.perRow[device] = perRow.Seconds()
}

func (f *fakeSub) Healthy(addr string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.unhealthy[addr]
}

func (f *fakeSub) RTT(addr string) (time.Duration, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.rtt[addr]
	return d, ok
}

func (f *fakeSub) Rehost(_ context.Context, block int, from, to string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.rehostErr[block]; err != nil {
		return err
	}
	f.epochs[len(f.epochs)-1].add(to, block)
	for i, b := range f.placement {
		if b.Block == block && b.Addr == from {
			f.placement[i].Addr = to
			f.rehosts = append(f.rehosts, Move{Block: block, From: from, To: to})
			next := f.free[:0]
			for _, a := range f.free {
				if a != to {
					next = append(next, a)
				}
			}
			f.free = append(next, from)
			return nil
		}
	}
	return fmt.Errorf("fake: block %d is not on %s", block, from)
}

func (f *fakeSub) Reshape(_ context.Context, target []string, r int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reshapes++
	f.reshapeR = r
	v := views{}
	for b, addr := range target {
		v.add(addr, b)
	}
	f.epochs, f.epochR = append(f.epochs, v), append(f.epochR, r)
	return nil
}

// newFakeSub serves m=4 as three 2-row blocks (r=2, Lemma 2 shape) on a, b, c
// with d free. The 4-host pool makes r=2 the TA2 optimum (⌈4/3⌉ = 2), so
// straggler evictions stay same-r rehosts.
func newFakeSub() *fakeSub {
	return &fakeSub{
		epochs: []views{{"a": {0: true}, "b": {1: true}, "c": {2: true}}},
		epochR: []int{2},
		placement: []BlockHost{
			{Block: 0, Addr: "a", Rows: 2},
			{Block: 1, Addr: "b", Rows: 2},
			{Block: 2, Addr: "c", Rows: 2},
		},
		free:      []string{"d"},
		perRow:    map[string]float64{},
		unhealthy: map[string]bool{},
		rtt:       map[string]time.Duration{"a": time.Millisecond, "b": time.Millisecond, "c": time.Millisecond, "d": time.Millisecond},
	}
}

func testConfig() Config {
	return Config{
		MinImprovement: 0.05,
		Cooldown:       time.Second,
		Metrics:        obs.New(),
	}
}

func TestControllerInfersInstance(t *testing.T) {
	c, err := New(testConfig(), newFakeSub())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	// 3 blocks of 2 rows hold m+r = 6 coded rows; the largest block is r=2,
	// so the inferred data size is m=4.
	if c.planner.m != 4 {
		t.Fatalf("inferred m = %d, want 4", c.planner.m)
	}
	if got := len(c.planner.Hosts()); got != 4 {
		t.Fatalf("pool = %d hosts, want 4 (3 serving + 1 free)", got)
	}
}

func TestControllerEvictsStraggler(t *testing.T) {
	sub := newFakeSub()
	c, err := New(testConfig(), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sub.measure("a", 100*time.Millisecond) // 10× the fleet median
	sub.measure("b", 10*time.Millisecond)
	sub.measure("c", 10*time.Millisecond)

	d, err := c.Step(context.Background(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Adopt || d.Reshape {
		t.Fatalf("decision = %+v, want a rehost adoption", d)
	}
	if len(sub.rehosts) != 1 || sub.rehosts[0] != (Move{Block: 0, From: "a", To: "d"}) {
		t.Fatalf("rehosts = %v, want block 0 a→d", sub.rehosts)
	}
	replans, adopts, moved := c.Stats()
	if replans != 1 || adopts != 1 || moved != 1 {
		t.Fatalf("stats = %d/%d/%d, want 1/1/1", replans, adopts, moved)
	}

	// The next cycle sees the already-migrated placement and holds.
	d2, err := c.Step(context.Background(), 11*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Adopt {
		t.Fatalf("post-migration cycle adopted again: %+v", d2)
	}
	sub.audit(t)
}

func TestControllerUrgentOnUnhealthyHost(t *testing.T) {
	sub := newFakeSub()
	c, err := New(testConfig(), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sub.mu.Lock()
	sub.unhealthy["a"] = true
	sub.mu.Unlock()

	// No latency samples at all: the open breaker alone pins a's factor to
	// the outage cost and forces an urgent eviction.
	d, err := c.Step(context.Background(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Adopt || !strings.Contains(d.Reason, "urgent") {
		t.Fatalf("decision = %+v, want urgent adoption", d)
	}
	if len(sub.rehosts) != 1 || sub.rehosts[0].From != "a" {
		t.Fatalf("rehosts = %v, want the unhealthy host evicted", sub.rehosts)
	}
}

func TestControllerRehostFailureIsRecordedNotFatal(t *testing.T) {
	sub := newFakeSub()
	sub.rehostErr = map[int]error{0: fmt.Errorf("device hung up")}
	c, err := New(testConfig(), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sub.measure("a", 100*time.Millisecond)
	sub.measure("b", 10*time.Millisecond)
	sub.measure("c", 10*time.Millisecond)

	d, err := c.Step(context.Background(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Adopt {
		t.Fatalf("decision = %+v, want adoption", d)
	}
	if len(sub.rehosts) != 0 {
		t.Fatalf("failed rehost mutated the placement: %v", sub.rehosts)
	}
	_, _, moved := c.Stats()
	if moved != 0 {
		t.Fatalf("moved = %d after a failed rehost, want 0", moved)
	}
	info := c.Debug()
	if len(info.Events) == 0 || info.Events[0].Err == "" {
		t.Fatalf("failure not recorded in events: %+v", info.Events)
	}
	// The fleet keeps serving from wherever blocks actually are; the next
	// cycle simply retries (or re-decides) — here the error persists and the
	// placement still never lies.
	if got := sub.Placements()[0].Addr; got != "a" {
		t.Fatalf("block 0 reported on %s, but the move failed", got)
	}
}

func TestControllerStartStop(t *testing.T) {
	cfg := testConfig()
	cfg.ReplanEvery = 5 * time.Millisecond
	c, err := New(cfg, newFakeSub())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	time.Sleep(60 * time.Millisecond)
	c.Stop()
	c.Stop() // idempotent
	replans, _, _ := c.Stats()
	if replans == 0 {
		t.Fatal("ticker ran no control cycles")
	}
}

func TestDebugHandler(t *testing.T) {
	sub := newFakeSub()
	c, err := New(testConfig(), sub)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	sub.measure("a", 100*time.Millisecond)
	sub.measure("b", 10*time.Millisecond)
	sub.measure("c", 10*time.Millisecond)
	if _, err := c.Step(context.Background(), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	c.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/adapt", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var info DebugInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, rec.Body.String())
	}
	if info.Replans != 1 || info.Adopts != 1 || info.BlocksMoved != 1 {
		t.Fatalf("debug counters = %d/%d/%d, want 1/1/1", info.Replans, info.Adopts, info.BlocksMoved)
	}
	if len(info.Estimates) == 0 || len(info.Decisions) == 0 || len(info.Events) == 0 {
		t.Fatalf("debug payload incomplete: %+v", info)
	}
	if len(info.Placements) != 3 {
		t.Fatalf("placements = %+v", info.Placements)
	}
}
