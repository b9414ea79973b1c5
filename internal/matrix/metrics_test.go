package matrix

import (
	"math/rand/v2"
	"testing"

	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/obs"
)

// TestKernelDispatchMetricsBoundedCardinality drives every op across every
// dispatch configuration and checks the kernel metrics stay within their
// fixed label sets: at most 4 ops × 2 impls × 2 modes = 16 counter series,
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

	for _, spec := range []bool{false, true} {
		for _, par := range []bool{false, true} {
			SetSpecializedKernels(spec)
			SetParallelKernels(par)
			SetParallelThreshold(1)
			for i := 0; i < 3; i++ {
				_ = Mul(f, a, b)
				_ = MulVec(f, a, x)
				_ = Add(f, a, b)
				_ = Sub(f, a, b)
			}
		}
	}

	allowed := map[string]map[string]bool{
		"op":   {"mul": true, "mulvec": true, "add": true, "sub": true},
		"impl": {"specialized": true, "generic": true},
		"mode": {"serial": true, "parallel": true},
	}
	snap := obs.Default().Snapshot()
	foundDispatch := false
	for _, fam := range snap.Metrics {
		if fam.Name == obs.MetricKernelDispatchTotal {
			foundDispatch = true
			if len(fam.Series) > 16 {
				t.Fatalf("%s has %d series, want <= 16", fam.Name, len(fam.Series))
			}
			var total float64
			for _, s := range fam.Series {
				if len(s.Labels) != 3 {
					t.Fatalf("dispatch series has labels %v, want op/impl/mode", s.Labels)
				}
				for key, vals := range allowed {
					if !vals[s.Labels[key]] {
						t.Fatalf("dispatch label %s=%q outside the bounded set", key, s.Labels[key])
					}
				}
				total += s.Value
			}
			if total < 4*4*3 { // 4 configs × 4 ops × 3 reps, plus whatever other tests recorded
				t.Fatalf("dispatch counters sum to %g, want >= 48", total)
			}
		}
	}
	if !foundDispatch {
		t.Fatal("kernel dispatch metrics missing from registry")
	}
}
