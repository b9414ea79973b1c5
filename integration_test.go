package scec_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/scec/scec"
	"github.com/scec/scec/internal/engine"
	"github.com/scec/scec/internal/obs"
	"github.com/scec/scec/internal/transport"
)

// TestIntegrationDeployOverSimulator runs the public-API deployment through
// the event-level simulator end to end.
func TestIntegrationDeployOverSimulator(t *testing.T) {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(7, 13))
	a := scec.RandomMatrix(f, rng, 120, 24)
	costs := []float64{2.3, 0.8, 1.4, 3.1, 1.9, 0.6}
	dep, err := scec.Deploy(f, a, costs, rng,
		scec.WithSimulator[uint64](scec.SimExecutorConfig{Seed: 1, Metrics: obs.New()}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = dep.Close() }()
	x := scec.RandomVector(f, rng, 24)
	got, err := dep.MulVec(x)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := dep.Executor().(*engine.SimExecutor[uint64]).LastReport()
	want := scec.MulVec(f, a, x)
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("simulator pipeline decoded the wrong result")
		}
	}
	// Total provisioned rows must match the plan exactly.
	if rep.TotalValuesSent != 120+dep.Plan.R {
		t.Fatalf("simulator moved %d values, plan says m+r = %d", rep.TotalValuesSent, 120+dep.Plan.R)
	}
}

// TestIntegrationDeployOverTCP runs the public-API deployment through the
// real TCP runtime end to end.
func TestIntegrationDeployOverTCP(t *testing.T) {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(11, 17))
	a := scec.RandomMatrix(f, rng, 40, 10)
	costs := []float64{1.1, 2.5, 0.9, 1.8}
	dep, err := scec.Deploy(f, a, costs, rng)
	if err != nil {
		t.Fatal(err)
	}

	addrs := make([]string, dep.Devices())
	for j := range addrs {
		srv, err := transport.NewDeviceServer[uint64](f, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs[j] = srv.Addr()
	}
	if err := (transport.Cloud[uint64]{}).Distribute(t.Context(), addrs, dep.Encoding); err != nil {
		t.Fatal(err)
	}
	// The user role: gather B_j·T·x in code device order, then decode.
	rowsOn := make([]int, dep.Code.Devices())
	for j := range rowsOn {
		rowsOn[j] = dep.Code.RowsOn(j)
	}
	x := scec.RandomVector(f, rng, 10)
	y, err := (transport.Client[uint64]{F: f}).Gather(t.Context(), addrs, rowsOn, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dep.Code.Decode(y)
	if err != nil {
		t.Fatal(err)
	}
	want := scec.MulVec(f, a, x)
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("TCP pipeline decoded the wrong result")
		}
	}
}

// TestIntegrationServeSurvivesReplicaLoss runs the public fault-tolerant
// façade end to end: two replicas per coded block, one replica of every
// block shut down mid-session, and the decoded A·x must stay exact.
func TestIntegrationServeSurvivesReplicaLoss(t *testing.T) {
	f := scec.PrimeField()
	rng := rand.New(rand.NewPCG(19, 23))
	a := scec.RandomMatrix(f, rng, 40, 10)
	costs := []float64{1.1, 2.5, 0.9, 1.8}
	dep, err := scec.Deploy(f, a, costs, rng)
	if err != nil {
		t.Fatal(err)
	}

	cfg := scec.FleetConfig{
		Replicas:      make([][]string, dep.Devices()),
		ProbeInterval: -1, // deterministic: no background probing
	}
	victims := make([]*transport.DeviceServer[uint64], dep.Devices())
	for j := range cfg.Replicas {
		for k := 0; k < 2; k++ {
			srv, err := transport.NewDeviceServer[uint64](f, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })
			if k == 0 {
				victims[j] = srv
			}
			cfg.Replicas[j] = append(cfg.Replicas[j], srv.Addr())
		}
	}
	s, err := scec.Serve(dep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })

	x := scec.RandomVector(f, rng, 10)
	want := scec.MulVec(f, a, x)
	check := func() {
		t.Helper()
		got, err := s.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatal("fleet session decoded the wrong result")
			}
		}
	}
	check()
	for _, srv := range victims {
		_ = srv.Close()
	}
	check() // failover must keep the answer exact
}

// TestQuickDeployAlwaysCorrectAndBlind is a testing/quick property over the
// whole public pipeline: for arbitrary shapes and fleets, Deploy+MulVec
// equals the plaintext product and no device leaks.
func TestQuickDeployAlwaysCorrectAndBlind(t *testing.T) {
	f := scec.PrimeField()
	check := func(mRaw, lRaw uint8, costBytes []byte, seed uint64) bool {
		m := 1 + int(mRaw)%40
		l := 1 + int(lRaw)%16
		if len(costBytes) < 2 {
			costBytes = append(costBytes, 3, 5)
		}
		if len(costBytes) > 8 {
			costBytes = costBytes[:8]
		}
		costs := make([]float64, len(costBytes))
		for j, b := range costBytes {
			costs[j] = 0.25 + float64(b)
		}
		rng := rand.New(rand.NewPCG(seed, 0x1e57))
		a := scec.RandomMatrix(f, rng, m, l)
		dep, err := scec.Deploy(f, a, costs, rng)
		if err != nil {
			return false
		}
		x := scec.RandomVector(f, rng, l)
		got, err := dep.MulVec(x)
		if err != nil {
			return false
		}
		want := scec.MulVec(f, a, x)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		for _, leak := range dep.Audit() {
			if leak != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAllocationDominance: for arbitrary fleets, the optimal plan never
// exceeds any baseline and never beats the lower bound.
func TestQuickAllocationDominance(t *testing.T) {
	check := func(mRaw uint16, costBytes []byte) bool {
		m := 1 + int(mRaw)%500
		if len(costBytes) < 2 {
			costBytes = append(costBytes, 2, 9)
		}
		if len(costBytes) > 20 {
			costBytes = costBytes[:20]
		}
		costs := make([]float64, len(costBytes))
		for j, b := range costBytes {
			costs[j] = 1 + float64(b)/16
		}
		opt, err := scec.Allocate(m, costs)
		if err != nil {
			return false
		}
		lb, err := scec.LowerBound(m, costs)
		if err != nil {
			return false
		}
		if opt.Cost < lb-1e-6 {
			return false
		}
		in := scec.Instance{M: m, Costs: costs}
		for _, base := range []func(scec.Instance) (scec.Plan, error){scec.BaselineMaxNode, scec.BaselineMinNode} {
			p, err := base(in)
			if err != nil {
				return false
			}
			if p.Cost < opt.Cost-1e-6 {
				return false
			}
		}
		woS, err := scec.BaselineWithoutSecurity(in)
		if err != nil {
			return false
		}
		return woS.Cost <= opt.Cost+1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationMultiFieldConsistency: the same integer matrix deployed
// over F_p decodes the plaintext float64 product for small integer inputs
// (where float64 is exact and values stay below the modulus); Real is the
// reference, never a deployment.
func TestIntegrationMultiFieldConsistency(t *testing.T) {
	const m, l = 6, 4
	rows := [][]int64{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
		{2, 4, 6, 8},
		{1, 3, 5, 7},
		{0, 1, 0, 1},
	}
	x64 := []int64{1, 2, 0, 3}
	costs := []float64{1, 2, 3}

	// Prime field.
	fp := scec.PrimeField()
	ap := scec.NewMatrix[uint64](m, l)
	xp := make([]uint64, l)
	for i, r := range rows {
		for j, v := range r {
			ap.Set(i, j, uint64(v))
		}
	}
	for j, v := range x64 {
		xp[j] = uint64(v)
	}
	depP, err := scec.Deploy(fp, ap, costs, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		t.Fatal(err)
	}
	yp, err := depP.MulVec(xp)
	if err != nil {
		t.Fatal(err)
	}

	// The plaintext reference over the reals.
	fr := scec.RealField(1e-9)
	ar := scec.NewMatrix[float64](m, l)
	xr := make([]float64, l)
	for i, r := range rows {
		for j, v := range r {
			ar.Set(i, j, float64(v))
		}
	}
	for j, v := range x64 {
		xr[j] = float64(v)
	}
	yr := scec.MulVec(fr, ar, xr)

	for i := 0; i < m; i++ {
		if float64(yp[i]) != yr[i] {
			t.Fatalf("row %d: prime %d vs real %g", i, yp[i], yr[i])
		}
	}
}
