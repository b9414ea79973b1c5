package adapt

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/engine"
	"github.com/scec/scec/internal/faultproxy"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/fleet"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/transport"
)

// liveEnv is a real loopback deployment: device servers behind fault
// proxies, a fleet session, a swappable engine, and the adaptive controller
// bound through a FleetAdapter — the full production wiring, in-process.
type liveEnv struct {
	f      field.Prime
	scheme *coding.Systematic[uint64]
	enc    *coding.Encoding[uint64]
	a      *matrix.Dense[uint64]
	x      []uint64
	want   []uint64

	proxies  []*faultproxy.Proxy // proxies[j] fronts block j's device
	standbys []*faultproxy.Proxy

	session *fleet.Session[uint64]
	swap    *engine.Swappable[uint64]
	query   *engine.Query[uint64]
	adapter *FleetAdapter[uint64]
	ctrl    *Controller
}

func newLiveEnv(t *testing.T, standbys int) *liveEnv {
	t.Helper()
	env := &liveEnv{}
	rng := rand.New(rand.NewPCG(5, 17))
	const m, l, r = 8, 5, 4
	scheme, err := coding.NewStructured(env.f, m, r)
	if err != nil {
		t.Fatal(err)
	}
	env.scheme = scheme
	env.a = matrix.New[uint64](m, l)
	for i := 0; i < m; i++ {
		for j := 0; j < l; j++ {
			env.a.Set(i, j, env.f.Rand(rng))
		}
	}
	env.enc, err = scheme.Encode(env.a, rng)
	if err != nil {
		t.Fatal(err)
	}
	env.x = make([]uint64, l)
	for j := range env.x {
		env.x[j] = env.f.Rand(rng)
	}
	env.want = make([]uint64, m)
	for i := range env.want {
		s := env.f.Zero()
		for j := 0; j < l; j++ {
			s = env.f.Add(s, env.f.Mul(env.a.At(i, j), env.x[j]))
		}
		env.want[i] = s
	}

	newProxied := func() *faultproxy.Proxy {
		srv, err := transport.NewDeviceServer[uint64](env.f, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		p, err := faultproxy.New(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = p.Close() })
		return p
	}

	cfg := fleet.Config{
		Replicas:      make([][]string, scheme.Devices()),
		RPCTimeout:    2 * time.Second,
		HedgeAfter:    -1,
		ProbeInterval: -1,
		Metrics:       obs.New(),
	}
	for j := range cfg.Replicas {
		p := newProxied()
		env.proxies = append(env.proxies, p)
		cfg.Replicas[j] = []string{p.Addr()}
	}
	for k := 0; k < standbys; k++ {
		p := newProxied()
		env.standbys = append(env.standbys, p)
		cfg.Standbys = append(cfg.Standbys, p.Addr())
	}

	env.session, err = fleet.Serve[uint64](env.f, env.enc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	env.swap, err = engine.NewSwappable[uint64](engine.WrapSession(env.session, true), env.enc.Code)
	if err != nil {
		t.Fatal(err)
	}
	env.query, err = engine.New(env.f, env.enc, env.swap, engine.Options{Metrics: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = env.query.Close() })

	env.adapter, err = NewFleetAdapter(env.f, env.enc, env.session, env.swap, cfg, rand.New(rand.NewPCG(23, 42)))
	if err != nil {
		t.Fatal(err)
	}
	env.ctrl, err = New(Config{
		// A wide margin: on a 5-device pool the optimal r genuinely shifts
		// when one device slows, and the test wants the cheap same-r rehost
		// the margin prefers, not a full reshape.
		MinImprovement: 0.10,
		Cooldown:       time.Millisecond, // tests drive Step manually
		Metrics:        obs.New(),
	}, env.adapter)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(env.ctrl.Stop)
	return env
}

func (env *liveEnv) checkAnswer(t *testing.T) {
	t.Helper()
	got, err := env.query.MulVec(env.x)
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	for i := range got {
		if got[i] != env.want[i] {
			t.Fatalf("row %d = %d, want %d", i, got[i], env.want[i])
		}
	}
}

// auditLifetime checks the one-block-per-device rule over the run: once for
// the provisioning-time session and once for the session a reshape swapped
// in, each against its own code (a fresh encoding is a fresh epoch).
func (env *liveEnv) auditLifetime(t *testing.T) {
	t.Helper()
	sessions := []*fleet.Session[uint64]{env.session}
	if cur := env.adapter.Session(); cur != env.session {
		sessions = append(sessions, cur)
	}
	for _, s := range sessions {
		v := views{}
		v.observe(s)
		v.audit(t, s.Code())
	}
}

// TestLiveControllerEvictsDelayedDevice runs the whole loop against real
// sockets: a fault proxy holds every reply of one device, the session's
// straggler record measures it, and a control step migrates the block to a
// standby — with every query before, during, and after correct.
func TestLiveControllerEvictsDelayedDevice(t *testing.T) {
	env := newLiveEnv(t, 2)
	slowAddr := env.proxies[0].Addr()
	env.proxies[0].SetDelay(60*time.Millisecond, 0)
	env.proxies[0].SetMode(faultproxy.Delay)

	// Each query files one attempt per device (blocks are unreplicated):
	// enough of them make every device's record trusted.
	for range fleet.MinAdaptiveSamples {
		env.checkAnswer(t)
	}

	d, err := env.ctrl.Step(context.Background(), env.ctrl.Now())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Adopt || d.Reshape {
		t.Fatalf("decision = %+v, want a rehost adoption off the delayed device", d)
	}
	moved := false
	for _, mv := range d.Moves {
		if mv.From == slowAddr {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("moves %v do not evict the delayed device %s", d.Moves, slowAddr)
	}
	for _, b := range env.adapter.Placements() {
		if b.Addr == slowAddr {
			t.Fatalf("delayed device still serves block %d", b.Block)
		}
	}
	replans, adopts, blocks := env.ctrl.Stats()
	if replans != 1 || adopts != 1 || blocks == 0 {
		t.Fatalf("stats = %d/%d/%d", replans, adopts, blocks)
	}
	env.checkAnswer(t)
	env.auditLifetime(t)
}

// TestLiveReshapeUnderLoad drives concurrent queries through a full
// drain-and-swap redeployment at a new r: reconstruction, re-encode with
// fresh randomness, a brand-new fleet session — and not one failed or wrong
// query.
func TestLiveReshapeUnderLoad(t *testing.T) {
	env := newLiveEnv(t, 2)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 15; n++ {
				got, err := env.query.MulVec(env.x)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if got[i] != env.want[i] {
						errs <- errors.New("wrong result during reshape")
						return
					}
				}
			}
		}()
	}

	// New r=3 over m=8 needs ⌈(8+3)/3⌉ = 4 devices: the 3 incumbents plus
	// one standby.
	target := make([]string, 0, 4)
	for _, p := range env.proxies {
		target = append(target, p.Addr())
	}
	target = append(target, env.standbys[0].Addr())
	if err := env.adapter.Reshape(context.Background(), target, 3); err != nil {
		t.Fatalf("Reshape: %v", err)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("query failed during reshape: %v", err)
	}

	next := env.adapter.Session()
	if next == env.session {
		t.Fatal("reshape did not install a new session")
	}
	if got := next.Code().R(); got != 3 {
		t.Fatalf("new session r = %d, want 3", got)
	}
	if got := len(env.adapter.Placements()); got != 4 {
		t.Fatalf("new placement has %d blocks, want 4", got)
	}
	// The remaining pool device is the new session's standby.
	free := env.adapter.Free()
	if len(free) != 1 || free[0] != env.standbys[1].Addr() {
		t.Fatalf("free pool after reshape = %v, want the unused standby", free)
	}
	env.checkAnswer(t)
	env.auditLifetime(t)
}

// TestLiveReshapeCarriesRecord: a reshape starts a session whose records are
// empty, so a device measured slow in the replaced session must still price
// above nominal until the new session has measured it — otherwise TA2 at
// base costs would move a block straight back onto the straggler. Once the
// new session holds enough samples, its own reading replaces the carried one.
func TestLiveReshapeCarriesRecord(t *testing.T) {
	env := newLiveEnv(t, 2)
	slowAddr := env.proxies[0].Addr()
	env.proxies[0].SetDelay(20*time.Millisecond, 0)
	env.proxies[0].SetMode(faultproxy.Delay)
	for range fleet.MinAdaptiveSamples {
		env.checkAnswer(t)
	}
	priced := func() DeviceEstimate {
		t.Helper()
		for _, e := range estimate(env.adapter, env.ctrl.planner.Hosts()) {
			if e.Device == slowAddr {
				return e
			}
		}
		return DeviceEstimate{Device: slowAddr, Factor: 1}
	}
	before := priced()
	if before.Factor <= 1 || before.PerRowNs == 0 {
		t.Fatalf("slow device priced %+v before the reshape, want above nominal", before)
	}

	// The same incumbents plus a standby at r = 3: the slow device keeps a
	// block in the new session, which has measured nobody yet.
	target := make([]string, 0, 4)
	for _, p := range env.proxies {
		target = append(target, p.Addr())
	}
	target = append(target, env.standbys[0].Addr())
	if err := env.adapter.Reshape(context.Background(), target, 3); err != nil {
		t.Fatalf("Reshape: %v", err)
	}
	for _, st := range env.adapter.Session().Stragglers() {
		if st.Samples != 0 {
			t.Fatalf("new session's record %+v, want it empty", st)
		}
	}
	// The held pings keep the device's RTT ratio high too, so the per-row
	// reading is what shows the carry.
	if after := priced(); after.Factor <= 1 || after.PerRowNs != before.PerRowNs {
		t.Fatalf("slow device priced %+v after the reshape, want the replaced session's %+v", after, before)
	}

	// Healed, and measured by the new session: its own reading wins.
	env.proxies[0].SetMode(faultproxy.None)
	for range fleet.MinAdaptiveSamples {
		env.checkAnswer(t)
	}
	if healed := priced(); healed.PerRowNs >= before.PerRowNs/4 {
		t.Fatalf("healed device priced %+v by the new session, want well under the carried %v ns per row", healed, before.PerRowNs)
	}
	env.auditLifetime(t)
}
