package experiments

import (
	"strings"
	"testing"
)

func TestComparisonShape(t *testing.T) {
	cfg := quickConfig()
	res, err := Comparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(res.Rows))
	}
	byName := map[string]ComparisonRow{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	opt := byName["MCSCEC (this paper)"]
	woS := byName["TAw/oS (no security)"]
	pmTight := byName["PolyMask t=1, n=2 (tight)"]
	pmSpare := byName["PolyMask t=1, n=4 (2 spares)"]

	if woS.MeanCost > opt.MeanCost {
		t.Fatal("dropping security cannot cost more")
	}
	// The paper's positioning: prior secure schemes ignore total resource
	// usage — even their best case (tight fleet, cheapest devices) costs
	// more than the optimized MCSCEC.
	if pmTight.MeanCost <= opt.MeanCost {
		t.Fatalf("tight PolyMask (%.0f) should exceed MCSCEC (%.0f)", pmTight.MeanCost, opt.MeanCost)
	}
	if pmSpare.MeanCost <= pmTight.MeanCost {
		t.Fatal("provisioning spares must cost more than the tight fleet")
	}
	// Row accounting.
	if pmTight.TotalRows != 2*res.M || pmSpare.TotalRows != 4*res.M {
		t.Fatalf("polymask rows = %d / %d", pmTight.TotalRows, pmSpare.TotalRows)
	}
	if opt.TotalRows <= res.M || opt.TotalRows >= 2*res.M {
		t.Fatalf("MCSCEC rows = %d, want m < rows < 2m", opt.TotalRows)
	}
	// Straggler columns.
	if pmSpare.Stragglers != 2 || opt.Stragglers != 0 {
		t.Fatal("straggler tolerances wrong")
	}
}

func TestWriteComparisonMarkdown(t *testing.T) {
	cfg := quickConfig()
	cfg.Defaults.Instances = 5
	res, err := Comparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var md strings.Builder
	if err := WriteComparisonMarkdown(&md, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "vs MCSCEC") {
		t.Fatal("markdown header missing")
	}
}

func TestComparisonRejectsZeroInstances(t *testing.T) {
	cfg := quickConfig()
	cfg.Defaults.Instances = 0
	if _, err := Comparison(cfg); err == nil {
		t.Fatal("zero instances should error")
	}
}
