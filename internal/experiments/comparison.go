package experiments

import (
	"fmt"
	"io"
	"sort"

	"github.com/scec/scec/internal/alloc"
	"github.com/scec/scec/internal/workload"
)

// ComparisonRow is one scheme in the related-work cost comparison.
type ComparisonRow struct {
	// Name names the design.
	Name string
	// TotalRows is the fleet-wide number of coded rows provisioned.
	TotalRows int
	// Devices is how many devices participate.
	Devices int
	// MeanCost is the mean unit-cost objective Σ_j rows_j·c_j.
	MeanCost float64
	// Stragglers is how many non-responding devices the scheme tolerates.
	Stragglers int
	// Collusion is the coalition size the scheme stays secure against.
	Collusion int
}

// ComparisonResult is the full related-work table.
type ComparisonResult struct {
	M, K      int
	Instances int
	Rows      []ComparisonRow
}

const saltComparison = 0xc0de

// Comparison prices the MCSCEC design against the related-work approaches
// the paper positions itself against (§I): polynomial masking ([8]–[10]
// style Shamir shares, where every device stores the whole masked matrix)
// and plain replication without security (TAw/oS). For polynomial masking
// two provisioning levels are priced: the minimal fleet (n = t+1, no
// straggler slack) and a fleet with two spare devices (n = t+3).
//
// All schemes are priced on the same sampled fleets with the paper's unit
// cost model; the polynomial-masking rows are m per device on the cheapest
// n devices (its best case).
func Comparison(cfg Config) (ComparisonResult, error) {
	d := cfg.Defaults
	m := 1000 // scaled from the §V default: the contrast is ratio-based
	n := d.Instances
	if n < 1 {
		return ComparisonResult{}, fmt.Errorf("experiments: %d instances per point", n)
	}
	res := ComparisonResult{M: m, K: d.K, Instances: n}

	type acc struct {
		cost  float64
		rows  int
		devs  int
		strag int
		coll  int
	}
	accs := map[string]*acc{
		"MCSCEC (this paper)":          {coll: 1},
		"TAw/oS (no security)":         {},
		"PolyMask t=1, n=2 (tight)":    {coll: 1},
		"PolyMask t=1, n=4 (2 spares)": {coll: 1, strag: 2},
	}
	order := []string{"MCSCEC (this paper)", "TAw/oS (no security)", "PolyMask t=1, n=2 (tight)", "PolyMask t=1, n=4 (2 spares)"}

	for inst := 0; inst < n; inst++ {
		rng := workload.RNG(cfg.Seed^saltComparison, 0, inst)
		in := workload.Instance(rng, m, d.K, workload.Uniform{Max: d.CMax})
		sorted := append([]float64(nil), in.Costs...)
		sort.Float64s(sorted)

		opt, err := alloc.TA2(in)
		if err != nil {
			return ComparisonResult{}, err
		}
		a := accs["MCSCEC (this paper)"]
		a.cost += opt.Cost / float64(n)
		a.rows = m + opt.R
		a.devs = opt.I

		woS, err := alloc.TAWithoutSecurity(in)
		if err != nil {
			return ComparisonResult{}, err
		}
		a = accs["TAw/oS (no security)"]
		a.cost += woS.Cost / float64(n)
		a.rows = m
		a.devs = woS.I

		// Polynomial masking: every one of its n devices stores and
		// multiplies all m rows; price it on the cheapest devices.
		for _, pm := range []struct {
			key string
			n   int
		}{
			{"PolyMask t=1, n=2 (tight)", 2},
			{"PolyMask t=1, n=4 (2 spares)", 4},
		} {
			total := 0.0
			for j := 0; j < pm.n; j++ {
				total += float64(m) * sorted[j]
			}
			a = accs[pm.key]
			a.cost += total / float64(n)
			a.rows = m * pm.n
			a.devs = pm.n
		}
	}

	for _, key := range order {
		a := accs[key]
		res.Rows = append(res.Rows, ComparisonRow{
			Name: key, TotalRows: a.rows, Devices: a.devs,
			MeanCost: a.cost, Stragglers: a.strag, Collusion: a.coll,
		})
	}
	return res, nil
}

// WriteComparisonMarkdown renders the related-work table.
func WriteComparisonMarkdown(w io.Writer, res ComparisonResult) error {
	if _, err := fmt.Fprintf(w, "### comparison — MCSCEC vs related-work schemes (m=%d, k=%d, %d fleets)\n\n",
		res.M, res.K, res.Instances); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "| scheme | total rows | devices | mean cost | vs MCSCEC | stragglers tolerated | collusion tolerated |\n|---|---|---|---|---|---|---|"); err != nil {
		return err
	}
	base := res.Rows[0].MeanCost
	for _, r := range res.Rows {
		if _, err := fmt.Fprintf(w, "| %s | %d | %d | %.0f | %+.0f%% | %d | %d |\n",
			r.Name, r.TotalRows, r.Devices, r.MeanCost, 100*(r.MeanCost-base)/base, r.Stragglers, r.Collusion); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
