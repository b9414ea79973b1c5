package scec_test

import (
	"encoding/json"
	"math/rand/v2"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/attack"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/transport"
)

// adaptiveEnv provisions a real loopback fleet (one device per block plus two
// standbys) and serves a local deployment on it with the adaptive control
// plane enabled.
func adaptiveEnv(t *testing.T, aCfg scec.AdaptiveConfig) (*scec.Served[uint64], []uint64, []uint64) {
	t.Helper()
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(29, 31))
	a := scec.RandomMatrix(f, rng, 40, 10)
	costs := []float64{1.1, 2.5, 0.9, 1.8}

	newSrv := func() string {
		srv, err := transport.NewDeviceServer[uint64](f, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv.Addr()
	}
	dep, err := scec.Deploy(f, a, costs, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scec.FleetConfig{
		Replicas:      make([][]string, dep.Devices()),
		Standbys:      []string{newSrv(), newSrv()},
		ProbeInterval: -1,
	}
	for j := range cfg.Replicas {
		cfg.Replicas[j] = []string{newSrv()}
	}
	s, err := scec.Serve(dep, cfg, scec.WithAdaptive[uint64](aCfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	x := scec.RandomVector(f, rng, 10)
	return s, x, scec.MulVec(f, a, x)
}

// auditLifetime asserts the lifetime-secrecy invariant for one session (one
// encoding): no address was ever sent two different blocks — replica sets plus
// bindings cover current hosts, vacated hosts and failed pushes — and the
// stacked coefficients of each address's whole view leak nothing.
func auditLifetime(t *testing.T, s *scec.Session[uint64]) {
	t.Helper()
	sent := map[string]map[int]bool{}
	add := func(addr string, block int) {
		if sent[addr] == nil {
			sent[addr] = map[int]bool{}
		}
		sent[addr][block] = true
	}
	for j, group := range s.BlockHosts() {
		for _, addr := range group {
			add(addr, j)
		}
	}
	for addr, j := range s.Bindings() {
		add(addr, j)
	}
	code := s.Code()
	for addr, blocks := range sent {
		if len(blocks) > 1 {
			t.Errorf("%s was sent %d blocks of one encoding: %v", addr, len(blocks), blocks)
		}
		var stack []*matrix.Dense[uint64]
		for j := range blocks {
			stack = append(stack, code.DeviceCoefficients(j))
		}
		if leak := attack.Leakage(scec.PrimeField(), matrix.VStack(stack...), code.M()); leak != 0 {
			t.Errorf("%s: lifetime view %v leaks %d combinations of A's rows", addr, blocks, leak)
		}
	}
}

// TestServeAdaptiveEndToEnd exercises the public adaptive path through
// Serve, its one entry point: queries stay exact while the background
// control loop runs, the controller is reachable through the handle, and
// /debug/adapt serves the live snapshot.
func TestServeAdaptiveEndToEnd(t *testing.T) {
	t.Run("Serve", testAdaptiveEndToEnd)
}

func testAdaptiveEndToEnd(t *testing.T) {
	s, x, want := adaptiveEnv(t, scec.AdaptiveConfig{ReplanEvery: 10 * time.Millisecond})

	ctrl := s.Adaptive()
	if ctrl == nil {
		t.Fatal("Adaptive() = nil on a WithAdaptive handle")
	}
	provisioned := s.Session()
	check := func() {
		t.Helper()
		got, err := s.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatal("adaptive serving decoded the wrong result")
			}
		}
	}
	check()

	// The background loop must tick on its own.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if replans, _, _ := ctrl.Stats(); replans > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("control loop never ran a cycle")
		}
		time.Sleep(5 * time.Millisecond)
	}
	check()

	rec := httptest.NewRecorder()
	s.AdaptDebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/adapt", nil))
	var info struct {
		Replans    int `json:"replans"`
		Placements []struct {
			Block int    `json:"block"`
			Addr  string `json:"addr"`
		} `json:"placements"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatalf("/debug/adapt is not JSON: %v\n%s", err, rec.Body.String())
	}
	if info.Replans == 0 || len(info.Placements) != s.Devices() {
		t.Fatalf("debug snapshot incomplete: %+v (devices %d)", info, s.Devices())
	}

	// Accessors resolve through the adapter (the control loop may already
	// have migrated — e.g. reshaped onto the standbys — so assert plumbing,
	// not placement): the session is live and devices+standbys cover the
	// whole provisioned pool.
	if s.Session() == nil {
		t.Fatal("Session() = nil")
	}
	if got := s.Devices() + s.Standbys(); got > 6 || s.Devices() < 2 {
		t.Fatalf("accessors inconsistent: devices %d standbys %d over a 6-device pool", s.Devices(), s.Standbys())
	}
	rec = httptest.NewRecorder()
	s.FleetDebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/fleet", nil))
	if rec.Code != 200 {
		t.Fatalf("fleet debug handler status %d", rec.Code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent, and the loop is stopped
		t.Fatal(err)
	}
	// Whatever the loop did — rehosts within the provisioned session, or a
	// reshape onto a fresh one — each encoding kept one block per device.
	auditLifetime(t, provisioned)
	if cur := s.Session(); cur != provisioned {
		auditLifetime(t, cur)
	}
}

// TestDeployRejectsAdaptive pins that the in-process backends, which have no
// fleet to migrate, refuse the option.
func TestDeployRejectsAdaptive(t *testing.T) {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(3, 5))
	a := scec.RandomMatrix(f, rng, 10, 4)
	_, err := scec.Deploy(f, a, []float64{1, 1, 1}, rng, scec.WithAdaptive[uint64](scec.AdaptiveConfig{}))
	if err == nil || !strings.Contains(err.Error(), "WithAdaptive") {
		t.Fatalf("Deploy accepted WithAdaptive: %v", err)
	}
}

// TestAdaptDebugHandlerWithoutAdaptive pins the 404 on a plain Serve handle.
func TestAdaptDebugHandlerWithoutAdaptive(t *testing.T) {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(41, 43))
	a := scec.RandomMatrix(f, rng, 20, 5)
	dep, err := scec.Deploy(f, a, []float64{1, 1.2, 0.8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := scec.FleetConfig{Replicas: make([][]string, dep.Devices()), ProbeInterval: -1}
	for j := range cfg.Replicas {
		srv, err := transport.NewDeviceServer[uint64](f, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		cfg.Replicas[j] = []string{srv.Addr()}
	}
	s, err := scec.Serve(dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	if s.Adaptive() != nil {
		t.Fatal("Adaptive() non-nil without WithAdaptive")
	}
	rec := httptest.NewRecorder()
	s.AdaptDebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/adapt", nil))
	if rec.Code != 404 {
		t.Fatalf("status %d, want 404", rec.Code)
	}
}
