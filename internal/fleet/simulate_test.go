package fleet

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
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

// run gathers x once on a fresh simulated session and checks a success
// decodes to A·x.
func (c simCase) run(t *testing.T, g [][]sim.DeviceProfile, seed uint64) (sim.Report, error) {
	t.Helper()
	s, err := Simulate(c.f, c.enc, g, seed, obs.New())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
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
// its hedge launches at exactly DefaultHedgeAfter and completes the gather
// one device round later; the leader's attempt is withdrawn, and only the
// four launched attempts are priced.
func TestSimulatedHedgeReplacesFailedLeader(t *testing.T) {
	c := newSimCase(t)
	rep, err := c.run(t, c.groups(2, func(j, r int, p *sim.DeviceProfile) {
		if j == 0 && r == 0 {
			p.FailProb = 1
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
	round := sim.DeviceRoundTime(rows, 5, 1, sim.DefaultProfile())
	leader, hedge := rep.Devices[0], rep.Devices[len(rep.Devices)-1]
	if leader.Device != 0 || leader.Replica != 0 || leader.Outcome != sim.Withdrawn {
		t.Fatalf("first attempt: block %d replica %d %v, want block 0's leader withdrawn", leader.Device, leader.Replica, leader.Outcome)
	}
	if hedge.Device != 0 || hedge.Replica != 1 || hedge.Launched != DefaultHedgeAfter || hedge.Outcome != sim.Won {
		t.Fatalf("hedge: block %d replica %d launched at %v, %v; want block 0 replica 1 at %v, won",
			hedge.Device, hedge.Replica, hedge.Launched, hedge.Outcome, DefaultHedgeAfter)
	}
	decode := time.Duration(float64(rep.DecodeOps) / userComputeRate * float64(time.Second))
	if got, want := rep.CompletionTime-decode, DefaultHedgeAfter+round; got != want || hedge.ResultArrives != want {
		t.Fatalf("completion %v (hedge answered at %v), want exactly %v", got, hedge.ResultArrives, want)
	}
}

// TestSimulatedStragglerIsOvertaken: a leader whose round outlasts the hedge
// delay loses its block to the hedge on replica 1.
func TestSimulatedStragglerIsOvertaken(t *testing.T) {
	c := newSimCase(t)
	slow := sim.DefaultProfile()
	slow.StragglerFactor = 1e6
	rows := c.enc.Blocks[0].Rows()
	if sim.DeviceRoundTime(rows, 5, 1, slow) <= DefaultHedgeAfter+sim.DeviceRoundTime(rows, 5, 1, sim.DefaultProfile()) {
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
			p.FailProb = 1
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
		p.FailProb = 0.5
		p.StragglerFactor = float64(1 + 4*r)
	})
	for seed := uint64(1); seed <= 8; seed++ {
		rep1, err1 := c.run(t, g, seed)
		rep2, err2 := c.run(t, g, seed)
		if !reflect.DeepEqual(rep1, rep2) || !slices.Equal(rep1.Devices, rep2.Devices) || (err1 == nil) != (err2 == nil) {
			t.Fatalf("seed %d: two runs differ:\n%+v (%v)\n%+v (%v)", seed, rep1, err1, rep2, err2)
		}
	}
}
