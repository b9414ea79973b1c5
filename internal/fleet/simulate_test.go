package fleet

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/sim"
)

// The shipped race's timeline, pinned on the virtual clock: each test runs
// the default Config over a simulated session.

// simCase is an 8×5 matrix over the r=4 Eq. (8) code: three coded blocks.
type simCase struct {
	f    field.Prime
	enc  *coding.Encoding[uint64]
	x    []uint64
	want []uint64
}

func newSimCase(t *testing.T) simCase {
	t.Helper()
	c := simCase{}
	rng := rand.New(rand.NewPCG(42, 99))
	code, err := coding.NewStructured(c.f, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := matrix.Random[uint64](c.f, rng, 8, 5)
	if c.enc, err = code.Encode(a, rng); err != nil {
		t.Fatal(err)
	}
	c.x = matrix.RandomVec[uint64](c.f, rng, 5)
	c.want = matrix.MulVec[uint64](c.f, a, c.x)
	return c
}

// groups hosts every block on `replicas` default devices; mut edits them.
func (c simCase) groups(replicas int, mut func(j, r int, p *sim.DeviceProfile)) [][]sim.DeviceProfile {
	g := make([][]sim.DeviceProfile, len(c.enc.Blocks))
	for j := range g {
		for r := range replicas {
			p := sim.DefaultProfile()
			mut(j, r, &p)
			g[j] = append(g[j], p)
		}
	}
	return g
}

// coldPrior is the hedge delay of a simulated leader that has not yet won
// MinAdaptiveSamples races: coldRTTs times its modelled round trip,
// 2·Latency.
func coldPrior(p sim.DeviceProfile) time.Duration { return coldRTTs * 2 * p.Latency }

// session starts a simulated session over g that closes with the test.
func (c simCase) session(t *testing.T, g [][]sim.DeviceProfile, seed uint64) *Session[uint64] {
	t.Helper()
	s, err := Simulate(c.f, c.enc, g, seed, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// run gathers x once on a fresh simulated session and checks a success
// decodes to A·x.
func (c simCase) run(t *testing.T, g [][]sim.DeviceProfile, seed uint64) (sim.Report, error) {
	t.Helper()
	return c.gather(t, c.session(t, g, seed))
}

// gather gathers x once on s and checks a success decodes to A·x.
func (c simCase) gather(t *testing.T, s *Session[uint64]) (sim.Report, error) {
	t.Helper()
	y, err := s.GatherContext(t.Context(), c.x)
	if err == nil {
		got, derr := c.enc.Code.Decode(y)
		if derr != nil || !slices.Equal(got, c.want) {
			t.Fatalf("the simulated gather decodes to %v (%v), want %v", got, derr, c.want)
		}
	}
	rep, ok := s.SimReport()
	if !ok {
		t.Fatal("no report after a gather")
	}
	return rep, err
}

// TestSimulatedHedgeReplacesFailedLeader: block 0's leader never answers, so
// its hedge launches at exactly the cold leader's prior — twice its modelled
// round trip — and completes the gather one device round later; the
// leader's attempt is withdrawn, and only the four launched attempts are
// priced.
func TestSimulatedHedgeReplacesFailedLeader(t *testing.T) {
	c := newSimCase(t)
	rep, err := c.run(t, c.groups(2, func(j, r int, p *sim.DeviceProfile) {
		if j == 0 && r == 0 {
			p.Faults = []sim.Fault{{Fail: 1}}
		}
	}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Devices) != len(c.enc.Blocks)+1 {
		t.Fatalf("%d attempts, want a leader per block plus one hedge", len(rep.Devices))
	}
	var ops int64
	for _, d := range rep.Devices {
		ops += d.FieldOps
	}
	if rep.TotalFieldOps != ops {
		t.Fatalf("TotalFieldOps = %d, want the launched attempts' %d", rep.TotalFieldOps, ops)
	}
	rows := c.enc.Blocks[0].Rows()
	round := sim.DeviceRoundTime(rows, 5, sim.DefaultProfile(), 0)
	leader, hedge := rep.Devices[0], rep.Devices[len(rep.Devices)-1]
	if leader.Device != 0 || leader.Replica != 0 || leader.Outcome != sim.Withdrawn {
		t.Fatalf("first attempt: block %d replica %d %v, want block 0's leader withdrawn", leader.Device, leader.Replica, leader.Outcome)
	}
	prior := coldPrior(sim.DefaultProfile())
	if hedge.Device != 0 || hedge.Replica != 1 || hedge.Launched != prior || hedge.Outcome != sim.Won {
		t.Fatalf("hedge: block %d replica %d launched at %v, %v; want block 0 replica 1 at %v, won",
			hedge.Device, hedge.Replica, hedge.Launched, hedge.Outcome, prior)
	}
	decode := time.Duration(float64(rep.DecodeOps) / userComputeRate * float64(time.Second))
	if got, want := rep.CompletionTime-decode, prior+round; got != want || hedge.ResultArrives != want {
		t.Fatalf("completion %v (hedge answered at %v), want exactly %v", got, hedge.ResultArrives, want)
	}
}

// TestSimulatedOutageHoldsAttempt: block 0's only replica is down from the
// start of the session until 50 ms in, past the provisioning push. The
// gather's attempt on it is held until the outage ends, then answers one
// priced round later; it is won, not failed.
func TestSimulatedOutageHoldsAttempt(t *testing.T) {
	c := newSimCase(t)
	const up = 50 * time.Millisecond
	rep, err := c.run(t, c.groups(1, func(j, _ int, p *sim.DeviceProfile) {
		if j == 0 {
			p.Faults = []sim.Fault{{Until: up, Down: true}}
		}
	}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StoreTime >= up {
		t.Fatalf("the push ends at %v, after the outage: nothing is held", rep.StoreTime)
	}
	held := rep.Devices[0]
	round := sim.DeviceRoundTime(c.enc.Blocks[0].Rows(), 5, sim.DefaultProfile(), 0)
	if want := up - rep.StoreTime + round; held.Device != 0 || held.Launched != 0 || held.ResultArrives != want || held.Outcome != sim.Won {
		t.Fatalf("block 0's attempt: block %d launched at %v, answered at %v, %v; want block 0 launched at 0, answered at %v, won",
			held.Device, held.Launched, held.ResultArrives, held.Outcome, want)
	}
	if len(rep.Devices) != len(c.enc.Blocks) {
		t.Fatalf("%d attempts, want one per block", len(rep.Devices))
	}
}

// TestSimulatedStragglerIsOvertaken: a leader whose round outlasts the hedge
// delay loses its block to the hedge on replica 1.
func TestSimulatedStragglerIsOvertaken(t *testing.T) {
	c := newSimCase(t)
	slow := sim.DefaultProfile()
	slow.Faults = []sim.Fault{{Slow: 1e6}}
	rows := c.enc.Blocks[0].Rows()
	if sim.DeviceRoundTime(rows, 5, slow, 0) <= coldPrior(slow)+sim.DeviceRoundTime(rows, 5, sim.DefaultProfile(), 0) {
		t.Fatal("the straggler is not slow enough to be overtaken")
	}
	rep, err := c.run(t, c.groups(2, func(j, r int, p *sim.DeviceProfile) {
		if j == 0 && r == 0 {
			*p = slow
		}
	}), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rep.Devices {
		if d.Device != 0 {
			continue
		}
		if want := []sim.Outcome{sim.Withdrawn, sim.Won}[d.Replica]; d.Outcome != want {
			t.Fatalf("block 0 replica %d ended %v, want %v", d.Replica, d.Outcome, want)
		}
	}
}

// TestSimulatedBlockUnavailable: a block whose every replica failed exhausts
// its rounds — MaxRetries+1 of them — and the gather fails with
// ErrBlockUnavailable.
func TestSimulatedBlockUnavailable(t *testing.T) {
	c := newSimCase(t)
	rep, err := c.run(t, c.groups(2, func(j, r int, p *sim.DeviceProfile) {
		if j == 1 {
			p.Faults = []sim.Fault{{Fail: 1}}
		}
	}), 1)
	var be *BlockUnavailableError
	if !errors.Is(err, ErrBlockUnavailable) || !errors.As(err, &be) || be.Block != 1 || be.Attempts != DefaultMaxRetries+1 {
		t.Fatalf("err = %v, want block 1 unavailable after %d rounds", err, DefaultMaxRetries+1)
	}
	rounds := map[int]int{}
	for _, d := range rep.Devices {
		if d.Device == 1 {
			rounds[d.Round]++
			if d.Outcome != sim.Failed {
				t.Fatalf("block 1 replica %d round %d ended %v, want failed", d.Replica, d.Round, d.Outcome)
			}
		}
	}
	if len(rounds) != DefaultMaxRetries+1 {
		t.Fatalf("block 1 ran rounds %v, want %d rounds", rounds, DefaultMaxRetries+1)
	}
}

// TestSimulatedRunIsDeterministic: the same seed run twice — failures that
// force retry rounds, and so jittered backoffs, included — gives equal
// reports.
func TestSimulatedRunIsDeterministic(t *testing.T) {
	c := newSimCase(t)
	g := c.groups(2, func(j, r int, p *sim.DeviceProfile) {
		p.Faults = []sim.Fault{{Fail: 0.5}, {Slow: float64(1 + 4*r)}}
	})
	for seed := uint64(1); seed <= 8; seed++ {
		rep1, err1 := c.run(t, g, seed)
		rep2, err2 := c.run(t, g, seed)
		if !reflect.DeepEqual(rep1, rep2) || !slices.Equal(rep1.Devices, rep2.Devices) || (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed %d: two runs differ:\n%+v (%v)\n%+v (%v)", seed, rep1, err1, rep2, err2)
		}
	}
}

// TestSimulatedHedgeDelayHoldsAcrossGathers: block 0's leader never answers.
// While it leads, every gather of one session hedges at the same offset, the
// cold prior: a hedge delay fed by the hedged rounds it caused would climb
// gather after gather. Each of those gathers files the withdrawn leader's
// time so far as a lower bound on its latency, so once it holds
// MinAdaptiveSamples of them it is measured slower than its live peer and
// demoted: from then on block 0 asks the live replica alone.
func TestSimulatedHedgeDelayHoldsAcrossGathers(t *testing.T) {
	c := newSimCase(t)
	s := c.session(t, c.groups(2, func(j, r int, p *sim.DeviceProfile) {
		if j == 0 && r == 0 {
			p.Faults = []sim.Fault{{Fail: 1}}
		}
	}), 7)
	prior := coldPrior(sim.DefaultProfile())
	for i := range 20 {
		rep, err := c.gather(t, s)
		if err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
		var block0 []sim.DeviceReport
		for _, d := range rep.Devices {
			if d.Device == 0 {
				block0 = append(block0, d)
			}
		}
		switch {
		case i < MinAdaptiveSamples:
			if len(block0) != 2 || block0[0].Replica != 0 || block0[1].Replica != 1 || block0[1].Launched != prior {
				t.Fatalf("gather %d: block 0's attempts %+v, want the dead leader, then its hedge at the cold prior %v", i, block0, prior)
			}
		case len(block0) != 1 || block0[0].Replica != 1 || block0[0].Launched != 0 || block0[0].Outcome != sim.Won:
			t.Fatalf("gather %d: block 0's attempts %+v, want the live replica alone, leading and won", i, block0)
		}
	}
}

// TestSimulatedSlowPeerDoesNotTakeTheLead: block 0's replica 1 computes ten
// times slower than replica 0 but has the same network round trip, so its
// cold prior prices it below replica 0's measured round and it takes the
// lead once replica 0 is warm. Losing every round it leads to replica 0's
// hedge, it files each overtaken attempt as a lower bound on its latency;
// once it holds MinAdaptiveSamples of them it is measured slower and
// replica 0 leads again, unhedged, for the rest of the session. Replica 0
// wins block 0 every time.
func TestSimulatedSlowPeerDoesNotTakeTheLead(t *testing.T) {
	c := newSimCase(t)
	s := c.session(t, c.groups(2, func(_, r int, p *sim.DeviceProfile) {
		p.Latency = time.Millisecond
		p.ComputeRate = 1e4
		if r == 1 {
			p.Faults = []sim.Fault{{Slow: 10}}
		}
	}), 1)
	rows := c.enc.Blocks[0].Rows()
	p := sim.DefaultProfile()
	p.Latency, p.ComputeRate = time.Millisecond, 1e4
	if round := sim.DeviceRoundTime(rows, 5, p, 0); round <= coldPrior(p) {
		t.Fatalf("replica 0's round %v is inside the cold prior %v: nothing would demote it", round, coldPrior(p))
	}
	for i := range 30 {
		rep, err := c.gather(t, s)
		if err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
		var block0 []sim.DeviceReport
		for _, d := range rep.Devices {
			if d.Device == 0 {
				block0 = append(block0, d)
				if d.Outcome == sim.Won && d.Replica != 0 {
					t.Fatalf("gather %d: the slow replica won block 0", i)
				}
			}
		}
		if i >= 2*MinAdaptiveSamples && (len(block0) != 1 || block0[0].Replica != 0 || block0[0].Outcome != sim.Won) {
			t.Fatalf("gather %d, after warm-up: block 0's attempts %+v, want replica 0 alone, won", i, block0)
		}
	}
}

// TestSimulatedFlakyLeaderHedgeHolds: block 0's leader fails to answer a
// third of its gathers, so its hedge overtakes it in each of those. A
// lower bound enters its record only while it has no estimate of its own,
// so the rounds its hedge decides cannot push the p95 it hedges at up
// gather after gather: no hedge ever waits past the largest sample it
// could have filed, the cold prior plus a round.
func TestSimulatedFlakyLeaderHedgeHolds(t *testing.T) {
	c := newSimCase(t)
	s := c.session(t, c.groups(2, func(j, r int, p *sim.DeviceProfile) {
		if j == 0 && r == 0 {
			p.Faults = []sim.Fault{{Fail: 0.3}}
		}
	}), 3)
	p := sim.DefaultProfile()
	bound := coldPrior(p) + sim.DeviceRoundTime(c.enc.Blocks[0].Rows(), 5, p, 0)
	hedges := 0
	for i := range 200 {
		rep, err := c.gather(t, s)
		if err != nil {
			t.Fatalf("gather %d: %v", i, err)
		}
		for _, d := range rep.Devices {
			if d.Device == 0 && d.Launched > 0 {
				hedges++
				if d.Launched > bound {
					t.Fatalf("gather %d: block 0's hedge launched at %v, past %v", i, d.Launched, bound)
				}
			}
		}
	}
	if hedges < 40 {
		t.Fatalf("%d hedges on block 0 in 200 gathers; the test exercised too few", hedges)
	}
}

// TestDebugHedgeDelayFollowsAdmission: /debug/fleet reports a block's hedge
// delay only when a round started now would have somebody to hedge to. With
// block 0's replica 1 inside an open breaker's cooldown the round would ask
// replica 0 alone, so the delay is zero; once the cooldown has passed the
// round would admit replica 1 as a trial and hedge to it at the cold prior.
// Reading the view leaves the breaker open.
func TestDebugHedgeDelayFollowsAdmission(t *testing.T) {
	c := newSimCase(t)
	s := c.session(t, c.groups(2, func(int, int, *sim.DeviceProfile) {}), 1)
	peer := s.devices[s.cfg.Replicas[0][1]]
	peer.recordFailure(1, s.clk.Now())
	if b := s.Debug().Blocks[0]; b.Leader != s.cfg.Replicas[0][0] || b.HedgeDelay != 0 {
		t.Fatalf("peer in cooldown: leader %q, hedge delay %v; want %q and none", b.Leader, b.HedgeDelay, s.cfg.Replicas[0][0])
	}
	s.model.Set(s.model.now() + s.cfg.BreakerCooldown)
	if b, want := s.Debug().Blocks[0], coldPrior(sim.DefaultProfile()); b.HedgeDelay != want {
		t.Fatalf("peer past its cooldown: hedge delay %v, want the cold prior %v", b.HedgeDelay, want)
	}
	if st := peer.State(); st != BreakerOpen {
		t.Fatalf("Debug moved the peer's breaker to %v", st)
	}
}

// TestSimulatedFailureDrawsAdvance: a session's failure draws come from one
// stream, so successive gathers at failure probability 0.5 do not all fail
// the same replicas.
func TestSimulatedFailureDrawsAdvance(t *testing.T) {
	c := newSimCase(t)
	s := c.session(t, c.groups(2, func(_, _ int, p *sim.DeviceProfile) { p.Faults = []sim.Fault{{Fail: 0.5}} }), 1)
	patterns := map[string]bool{}
	for range 20 {
		_, _ = c.gather(t, s) // a gather may fail: every replica of a block can draw failed
		var pattern []byte
		for _, group := range s.cfg.Replicas {
			for _, addr := range group {
				pattern = strconv.AppendBool(pattern, s.model.devs[addr].failed)
			}
		}
		patterns[string(pattern)] = true
	}
	if len(patterns) < 2 {
		t.Fatalf("20 gathers at failure probability 0.5 drew %d failure pattern(s), want more than one", len(patterns))
	}
}
