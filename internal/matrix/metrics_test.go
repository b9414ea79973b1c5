package matrix

import (
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/obs"
)

// TestKernelDispatchMetricsBoundedCardinality drives every op serially and
// sharded and checks the kernel metrics carry exactly the labels op and
// mode, within their fixed sets: at most 4 ops × 2 modes = 8 counter series,
// no matter how many operations run. This matches
// the PR-1 convention of collapsing labels to bounded sets so hot paths can
// never explode /metrics.
func TestKernelDispatchMetricsBoundedCardinality(t *testing.T) {
	restoreKernelConfig(t)
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(61, 67))
	a := Random(f, rng, 40, 40)
	b := Random(f, rng, 40, 40)
	x := RandomVec(f, rng, 40)

	for _, mode := range serialAndSharded {
		SetParallelThreshold(mode.threshold)
		for i := 0; i < 3; i++ {
			_ = Mul(f, a, b)
			_ = MulVec(f, a, x)
			_ = Add(f, a, b)
			_ = Sub(f, a, b)
		}
	}

	allowed := map[string]map[string]bool{
		"op":   {"mul": true, "mulvec": true, "add": true, "sub": true},
		"mode": {"serial": true, "parallel": true},
	}
	snap := obs.Default().Snapshot()
	foundDispatch := false
	for _, fam := range snap.Metrics {
		if fam.Name == obs.MetricKernelDispatchTotal {
			foundDispatch = true
			if len(fam.Series) > 8 {
				t.Fatalf("%s has %d series, want <= 8", fam.Name, len(fam.Series))
			}
			var total float64
			for _, s := range fam.Series {
				if len(s.Labels) != len(allowed) {
					t.Fatalf("dispatch series has labels %v, want exactly op/mode", s.Labels)
				}
				for key, vals := range allowed {
					if !vals[s.Labels[key]] {
						t.Fatalf("dispatch label %s=%q outside the bounded set", key, s.Labels[key])
					}
				}
				total += s.Value
			}
			if total < 2*4*3 { // 2 modes × 4 ops × 3 reps, plus whatever other tests recorded
				t.Fatalf("dispatch counters sum to %g, want >= 24", total)
			}
		}
	}
	if !foundDispatch {
		t.Fatal("kernel dispatch metrics missing from registry")
	}
}
