package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"time"

	"github.com/scec/scec/internal/alloc"
	"github.com/scec/scec/internal/coding"
	"github.com/scec/scec/internal/field"
	"github.com/scec/scec/internal/matrix"
	"github.com/scec/scec/internal/workload"
)

// CollusionPoint is one measured security level of the t-sweep: the
// TACollusion plan shape and cost plus the measured encode/decode cost of
// the deployed code at that threshold. t = 1 additionally reports the
// Eq. (8) structured tier as the baseline the Cauchy design is priced
// against.
type CollusionPoint struct {
	T int `json:"t"`
	// Code is the measured code's Name ("eq8" or "collusion").
	Code string `json:"scheme"`
	// R is the random-row count the plan selected; Devices its fleet size.
	R       int `json:"r"`
	Devices int `json:"devices"`
	// PlanCost is the allocation's variable provisioning cost Σ V(B_j)·c_j.
	PlanCost float64 `json:"plan_cost"`
	// EncodeNs and DecodeNs are per-operation averages for one encode of the
	// m×l matrix and one decode of a full intermediate vector.
	EncodeNs float64 `json:"encode_ns"`
	DecodeNs float64 `json:"decode_ns"`
}

// CollusionReport is the machine-readable t-sweep recorded under
// results/collusion.json: the security-vs-cost trajectory of promoting the
// collusion tier, tracked PR over PR.
type CollusionReport struct {
	M       int              `json:"m"`
	L       int              `json:"l"`
	K       int              `json:"k"`
	Seed    uint64           `json:"seed"`
	Points  []CollusionPoint `json:"points"`
	Version int              `json:"version"`
}

// CollusionSweep measures allocation cost and encode/decode latency as the
// collusion threshold t rises from 1 (with the Eq. (8) scheme as the t = 1
// baseline) on one deterministic fleet. Shapes are kept moderate (m ≈ 400)
// so the sweep runs in CI time while the decode cost difference between
// the identity stack and a dense Cauchy C is still visible.
func CollusionSweep(cfg Config) (CollusionReport, error) {
	const m, l, k, tMax = 400, 64, 24, 4
	f := field.Prime{}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xc011))
	in := workload.Instance(rng, m, k, workload.Uniform{Max: 5})
	a := matrix.Random[uint64](f, rng, m, l)
	x := matrix.RandomVec[uint64](f, rng, l)

	rep := CollusionReport{M: m, L: l, K: k, Seed: cfg.Seed, Version: 1}

	measure := func(t int, plan alloc.Plan, code coding.Code[uint64]) error {
		enc, err := code.Encode(a, rand.New(rand.NewPCG(cfg.Seed, 0xe11c)))
		if err != nil {
			return err
		}
		y := enc.ComputeAll(f, x)
		encodeNs := nsPerOp(5, func() {
			_, _ = code.Encode(a, rand.New(rand.NewPCG(cfg.Seed, 0xe11c)))
		})
		decodeNs := nsPerOp(20, func() {
			_, _ = code.Decode(y)
		})
		rep.Points = append(rep.Points, CollusionPoint{
			T: t, Code: code.Name(), R: plan.R, Devices: code.Devices(),
			PlanCost: plan.Cost, EncodeNs: encodeNs, DecodeNs: decodeNs,
		})
		return nil
	}

	// t = 1 baseline: the structured Eq. (8) tier under TA1.
	ta1, err := alloc.TA1(in)
	if err != nil {
		return rep, err
	}
	eq8, err := coding.NewStructured[uint64](f, m, ta1.R)
	if err != nil {
		return rep, err
	}
	if err := measure(1, ta1, eq8); err != nil {
		return rep, err
	}

	for t := 1; t <= tMax; t++ {
		plan, err := alloc.TACollusion(in, t)
		if err != nil {
			return rep, err
		}
		rows := make([]int, plan.I)
		for j, as := range plan.Assignments {
			rows[j] = as.Rows
		}
		code, err := coding.NewCollusion[uint64](f, m, plan.R, t, rows)
		if err != nil {
			return rep, err
		}
		if err := measure(t, plan, code); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// nsPerOp times iters calls of fn after one warm-up call and returns the
// fastest of three repetitions in nanoseconds per call: on shared vCPUs the
// minimum is the estimate least contaminated by preemption.
func nsPerOp(iters int, fn func()) float64 {
	fn()
	best := math.Inf(1)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		best = min(best, float64(time.Since(start).Nanoseconds())/float64(iters))
	}
	return best
}

// WriteCollusionJSON writes the report as indented JSON.
func WriteCollusionJSON(w io.Writer, rep CollusionReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// CheckCollusion is the CI guard over a sweep: every point must be finite
// and positive, the plan cost must be non-decreasing in t (security is never
// free), and the t = 1 Cauchy plan must match the structured baseline's cost
// (the sweep degenerates to TA1's shape there).
func CheckCollusion(rep CollusionReport) error {
	if len(rep.Points) < 2 {
		return fmt.Errorf("collusion sweep produced %d points", len(rep.Points))
	}
	var base, firstCauchy *CollusionPoint
	prevCost := -1.0
	for i := range rep.Points {
		p := &rep.Points[i]
		if p.EncodeNs <= 0 || p.DecodeNs <= 0 || p.PlanCost <= 0 || p.R < 1 || p.Devices < 2 {
			return fmt.Errorf("collusion point t=%d/%s is degenerate: %+v", p.T, p.Code, *p)
		}
		switch p.Code {
		case "eq8":
			base = p
		case "collusion":
			if firstCauchy == nil {
				firstCauchy = p
			}
			if p.PlanCost < prevCost-1e-6 {
				return fmt.Errorf("plan cost decreased from %g to %g as t rose to %d", prevCost, p.PlanCost, p.T)
			}
			prevCost = p.PlanCost
		default:
			return fmt.Errorf("unknown code %q in sweep", p.Code)
		}
	}
	if base == nil || firstCauchy == nil {
		return fmt.Errorf("sweep is missing the eq8 baseline or the Cauchy points")
	}
	if d := firstCauchy.PlanCost - base.PlanCost; d > 1e-6 || d < -1e-6 {
		return fmt.Errorf("t = 1 Cauchy plan costs %g, structured baseline %g; TACollusion should degenerate to TA1", firstCauchy.PlanCost, base.PlanCost)
	}
	return nil
}
