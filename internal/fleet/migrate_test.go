package fleet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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

	// The vacated device eventually recycles into the standby pool, but only
	// after its quarantine: straggling attempts that snapshotted the old
	// replica set may still be reading the old block from it.
	for _, addr := range s.StandbyAddrs() {
		if addr == from {
			t.Fatalf("vacated %s is already an eligible standby; quarantine missing", from)
		}
	}
	if err := s.Rehost(context.Background(), 1, env.cfg.Replicas[1][0], from); err == nil {
		t.Fatal("claiming the quarantined vacated device should fail")
	} else if !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("unexpected error claiming quarantined standby: %v", err)
	}
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
}

func TestRehostFailedPushLeavesPlacementIntact(t *testing.T) {
	env := newTestEnv(t, 1, 1)
	s := env.serve(t)

	env.standbys[0].SetMode(FaultDrop) // the push to the standby will fail
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
