package fleet

import (
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/scec/scec/internal/attack"
	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/faultproxy"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/transport"
)

func checkAnswer(t *testing.T, env *testEnv, s *Session[uint64]) {
	t.Helper()
	got, err := mulVec(s, env.x)
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	for i := range got {
		if got[i] != env.want[i] {
			t.Fatalf("row %d = %d, want %d", i, got[i], env.want[i])
		}
	}
}

func TestRehostMovesBlockWithoutInterruption(t *testing.T) {
	env := newTestEnv(t, 1, 2)
	s := env.serve(t)
	checkAnswer(t, env, s)

	from := env.cfg.Replicas[0][0]
	to := env.cfg.Standbys[0]
	if err := s.Rehost(context.Background(), 0, from, to); err != nil {
		t.Fatalf("Rehost: %v", err)
	}
	hosts := s.BlockHosts()
	if len(hosts[0]) != 1 || hosts[0][0] != to {
		t.Fatalf("block 0 hosts = %v, want [%s]", hosts[0], to)
	}
	checkAnswer(t, env, s)

	// The vacated device rejoins the standby pool bound to block 0 for the
	// rest of the session: no other block may ever land on it, its own may.
	for _, addr := range s.StandbyAddrs() {
		if addr == from {
			t.Fatalf("vacated %s is offered as a standby for any block", from)
		}
	}
	if err := s.Rehost(context.Background(), 1, env.cfg.Replicas[1][0], from); err == nil {
		t.Fatal("a second block of the same encoding was pushed to the vacated device")
	} else if !strings.Contains(err.Error(), "once sent, block 0") {
		t.Fatalf("unexpected error claiming the bound standby: %v", err)
	}
	if err := s.Rehost(context.Background(), 0, to, from); err != nil {
		t.Fatalf("moving block 0 back to its former host: %v", err)
	}
	checkAnswer(t, env, s)
}

// lifetimeFleet is a one-replica loopback fleet over any field and code, with
// one standby, for the lifetime-binding regression below.
type lifetimeFleet[E comparable] struct {
	f       field.Field[E]
	code    coding.Code[E]
	s       *Session[E]
	proxies map[string]*faultproxy.Proxy
	hosts   []string // block j's provisioned host
	standby string
	// sent[addr] is every block the address has been observed serving: its
	// lifetime view under this one encoding.
	sent map[string]map[int]bool
}

func newLifetimeFleet[E comparable](t *testing.T, f field.Field[E], code coding.Code[E]) *lifetimeFleet[E] {
	t.Helper()
	rng := rand.New(rand.NewPCG(7, 11))
	enc, err := code.Encode(matrix.Random(f, rng, code.M(), 5), rng)
	if err != nil {
		t.Fatal(err)
	}
	lf := &lifetimeFleet[E]{f: f, code: code, proxies: map[string]*faultproxy.Proxy{}, sent: map[string]map[int]bool{}}
	cfg := Config{
		RPCTimeout:       150 * time.Millisecond,
		HedgeAfter:       -1,
		ProbeInterval:    -1, // the test drives probeOnce itself
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		Metrics:          obs.New(),
	}
	for j := 0; j < code.Devices(); j++ {
		lf.hosts = append(lf.hosts, lf.device(t))
		cfg.Replicas = append(cfg.Replicas, []string{lf.hosts[j]})
	}
	lf.standby = lf.device(t)
	cfg.Standbys = []string{lf.standby}
	if lf.s, err = Serve(f, enc, cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = lf.s.Close() })
	lf.observe()
	return lf
}

// device starts one proxied device server and returns its address.
func (lf *lifetimeFleet[E]) device(t *testing.T) string {
	t.Helper()
	srv, err := transport.NewDeviceServer[E](lf.f, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	p, err := faultproxy.New(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	lf.proxies[p.Addr()] = p
	return p.Addr()
}

// observe folds the current replica sets into the lifetime views.
func (lf *lifetimeFleet[E]) observe() {
	for j, group := range lf.s.BlockHosts() {
		for _, addr := range group {
			if lf.sent[addr] == nil {
				lf.sent[addr] = map[int]bool{}
			}
			lf.sent[addr][j] = true
		}
	}
}

// audit checks every address's lifetime view: one block, and zero leakage
// for its stacked coefficients.
func (lf *lifetimeFleet[E]) audit(t *testing.T) {
	t.Helper()
	lf.observe()
	for addr, blocks := range lf.sent {
		if len(blocks) != 1 {
			t.Errorf("%s was sent %d different blocks under one encoding: %v", addr, len(blocks), blocks)
		}
		var stack []*matrix.Dense[E]
		for j := range blocks {
			stack = append(stack, lf.code.DeviceCoefficients(j))
		}
		if leak := attack.Leakage(lf.f, matrix.VStack(stack...), lf.code.M()); leak != 0 {
			t.Errorf("%s: lifetime view %v leaks %d combinations of A's rows", addr, blocks, leak)
		}
	}
}

// testDeviceBoundToOneBlock is the lifetime-secrecy regression: a device that
// vacated block 0 must never be handed another block of the same encoding —
// not by Rehost, not by self-repair, however long ago it vacated — while it
// stays eligible for block 0 itself.
func testDeviceBoundToOneBlock[E comparable](t *testing.T, f field.Field[E], code coding.Code[E]) {
	lf := newLifetimeFleet(t, f, code)
	s, ctx := lf.s, context.Background()
	a, sb := lf.hosts[0], lf.standby
	if err := s.Rehost(ctx, 0, a, sb); err != nil {
		t.Fatalf("rehost block 0 %s → %s: %v", a, sb, err)
	}
	time.Sleep(200 * time.Millisecond) // well past RPCTimeout: no grace period ends the binding

	err := s.Rehost(ctx, 1, lf.hosts[1], a)
	if err == nil || !strings.Contains(err.Error(), "once sent, block 0") {
		t.Errorf("rehost of block 1 onto block 0's former host: err = %v, want the binding refusal", err)
	}
	if got := s.StandbyAddrs(); len(got) != 0 {
		t.Errorf("StandbyAddrs = %v, want none: the only standby is bound to block 0", got)
	}

	// Block 1 loses its only replica and the vacated device is the only
	// standby: self-repair must leave the block degraded rather than use it.
	lf.proxies[lf.hosts[1]].SetMode(faultproxy.Drop)
	for i := 0; i < 3; i++ {
		s.probeOnce()
	}
	s.wg.Wait() // any repair the probe rounds started
	if n := s.ReplicaCount(1); n != 1 {
		t.Errorf("block 1 has %d replicas: repair promoted a device bound to block 0", n)
	}
	if n := s.Standbys(); n != 1 {
		t.Errorf("standby pool has %d devices, want the vacated host still in it", n)
	}
	lf.proxies[lf.hosts[1]].SetMode(faultproxy.None)

	// Its own block may come back: same rows, same view.
	if err := s.Rehost(ctx, 0, sb, a); err != nil {
		t.Errorf("rehost block 0 back onto its former host: %v", err)
	}

	// A failed push may have landed, so it binds too.
	x := lf.device(t)
	lf.proxies[x].SetMode(faultproxy.Drop)
	if err := s.Rehost(ctx, 1, lf.hosts[1], x); err == nil {
		t.Fatal("rehost through a dropping proxy should fail")
	}
	lf.proxies[x].SetMode(faultproxy.None)
	if got := s.Bindings()[x]; got != 1 {
		t.Errorf("after a failed push of block 1, %s is bound to %d, want 1", x, got)
	}
	if err := s.Rehost(ctx, 2, lf.hosts[2], x); err == nil {
		t.Errorf("block 2 was pushed to %s, which a failed push of block 1 may have reached", x)
	}
	lf.audit(t)
}

func TestDeviceBoundToOneBlockForSessionLifetime(t *testing.T) {
	testDeviceBoundOverField[uint64](t, "prime", field.Prime{})
	testDeviceBoundOverField[byte](t, "gf256", field.GF256{})
}

// testDeviceBoundOverField runs the regression over both code families: two
// stacked blocks of the Eq. (8) code leak r = 4 combinations; the Cauchy
// t = 2 code tolerates a pair, and is bound all the same.
func testDeviceBoundOverField[E comparable](t *testing.T, name string, f field.Field[E]) {
	t.Run(name+"/eq8", func(t *testing.T) {
		code, err := coding.NewStructured(f, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		testDeviceBoundToOneBlock[E](t, f, code)
	})
	t.Run(name+"/cauchy-t2", func(t *testing.T) {
		code, err := coding.NewCollusion(f, 8, 4, 2, []int{2, 2, 2, 2, 2, 2})
		if err != nil {
			t.Fatal(err)
		}
		testDeviceBoundToOneBlock[E](t, f, code)
	})
}

func TestRehostRefusesOccupiedDestination(t *testing.T) {
	env := newTestEnv(t, 1, 1)
	s := env.serve(t)

	// One device stores exactly one block (Def. 2's per-device view): the
	// host of block 1 must not also receive block 0.
	err := s.Rehost(context.Background(), 0, env.cfg.Replicas[0][0], env.cfg.Replicas[1][0])
	if err == nil || !strings.Contains(err.Error(), "already hosts") {
		t.Fatalf("rehost onto an occupied device: err = %v", err)
	}
	checkAnswer(t, env, s)
}

func TestRehostValidation(t *testing.T) {
	env := newTestEnv(t, 1, 1)
	s := env.serve(t)
	if err := s.Rehost(context.Background(), -1, "a", "b"); err == nil {
		t.Error("negative block accepted")
	}
	if err := s.Rehost(context.Background(), 99, "a", "b"); err == nil {
		t.Error("out-of-range block accepted")
	}
	addr := env.cfg.Replicas[0][0]
	if err := s.Rehost(context.Background(), 0, addr, addr); err == nil {
		t.Error("self-rehost accepted")
	}
	// A source that does not host the block would turn the move into a
	// silent replica-set growth.
	err := s.Rehost(context.Background(), 0, "10.0.0.1:9", env.cfg.Standbys[0])
	if err == nil || !strings.Contains(err.Error(), "does not host block 0") {
		t.Errorf("rehost from a stranger: err = %v", err)
	}
	if s.ReplicaCount(0) != 1 || s.Standbys() != 1 {
		t.Errorf("refused rehost changed the fleet: %d replicas, %d standbys", s.ReplicaCount(0), s.Standbys())
	}
}

func TestRehostFailedPushLeavesPlacementIntact(t *testing.T) {
	env := newTestEnv(t, 1, 1)
	s := env.serve(t)

	env.standbys[0].SetMode(faultproxy.Drop) // the push to the standby will fail
	from := env.cfg.Replicas[0][0]
	if err := s.Rehost(context.Background(), 0, from, env.cfg.Standbys[0]); err == nil {
		t.Fatal("rehost should surface the failed push")
	}
	hosts := s.BlockHosts()
	if len(hosts[0]) != 1 || hosts[0][0] != from {
		t.Fatalf("failed rehost mutated placement: %v", hosts[0])
	}
	checkAnswer(t, env, s)
}

func TestRehostUnderConcurrentQueries(t *testing.T) {
	env := newTestEnv(t, 1, 3)
	s := env.serve(t)

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got, err := mulVec(s, env.x)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if got[i] != env.want[i] {
						errs <- errors.New("wrong result during rehost")
						return
					}
				}
			}
		}()
	}

	// Walk block 0 across every standby while the queries fly: the replica
	// swap is atomic from any query's point of view, so none may fail.
	from := env.cfg.Replicas[0][0]
	for _, to := range env.cfg.Standbys {
		if err := s.Rehost(context.Background(), 0, from, to); err != nil {
			t.Fatalf("rehost %s → %s: %v", from, to, err)
		}
		from = to
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("query failed during rehost: %v", err)
	}
	hosts := s.BlockHosts()
	if hosts[0][0] != env.cfg.Standbys[len(env.cfg.Standbys)-1] {
		t.Fatalf("block 0 ended on %v", hosts[0])
	}
}
