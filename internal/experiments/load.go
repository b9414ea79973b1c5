package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/scec/scec/internal/alloc"
	"github.com/scec/scec/internal/loadgen"
	"github.com/scec/scec/internal/workload"
)

// VirtualSeed is the seed the virtual-clock studies (the load sweep and the
// recovery scenario) ran at when their reports were committed; it replaces
// DefaultConfig's figure seed for them.
const VirtualSeed = 1

// The load study's fixed shape. Both scenarios sweep the same offered-load
// steps under the same churn and are held to the same declared SLO.
const (
	// loadDevices × loadRowsPerDevice is the fleet-scale scenario: 1000
	// devices holding one coded row each.
	loadDevices       = 1000
	loadRowsPerDevice = 1
	loadCols          = 64
	loadChurnEvery    = 200 * time.Millisecond
	loadRequests      = 2000
	// loadSLO carries ~8× slack over the fleet-scale scenario's observed p99
	// (12 ms at 1000 QPS), so only a real latency regression violates it.
	loadSLO = "p99<=100ms@1000"
	// The collusion-tier scenario sweeps the per-device row layout
	// TACollusion plans for loadT colluding devices on an m×loadCols
	// instance over loadK candidates with costs drawn from U(1, loadCMax).
	loadT, loadM, loadK = 2, 1000, 10
	loadCMax            = 5.0
	saltLoad            = 0x51ec
)

// loadRates are the offered-load steps (QPS) of both scenarios.
var loadRates = []float64{500, 1000, 2000, 4000}

// LoadSweep runs the virtual-clock load study behind results/load.json: an
// open-loop, coordinated-omission-safe offered-load sweep with Poisson
// arrivals and churn, over (1) 1000 devices holding one coded row each and
// (2) the heterogeneous per-device layout of a t = 2 TACollusion plan. Every
// scenario records its loadSLO verdict, violated or not; Report.Check
// returns the violations. The report is deterministic in cfg.Seed.
func LoadSweep(cfg Config) (loadgen.Report, error) {
	slos, err := loadgen.ParseSLOs(loadSLO)
	if err != nil {
		return loadgen.Report{}, err
	}
	in := workload.Instance(rand.New(rand.NewPCG(cfg.Seed, saltLoad)), loadM, loadK, workload.Uniform{Max: loadCMax})
	plan, err := alloc.TACollusion(in, loadT)
	if err != nil {
		return loadgen.Report{}, err
	}
	planRows := make([]int, len(plan.Assignments))
	for j, as := range plan.Assignments {
		planRows[j] = as.Rows
	}

	rep := loadgen.Report{Version: loadgen.ReportVersion}
	for _, sc := range []struct {
		name       string
		devices    int
		deviceRows []int
	}{
		{fmt.Sprintf("sim-%ddev-churn", loadDevices), loadDevices, nil},
		{fmt.Sprintf("sim-t%d-%ddev-churn", loadT, len(planRows)), len(planRows), planRows},
	} {
		steps, stats, err := loadgen.VirtualSweep(loadgen.VirtualOptions{
			Devices:         sc.devices,
			RowsPerDevice:   loadRowsPerDevice,
			DeviceRows:      sc.deviceRows,
			Cols:            loadCols,
			ChurnEvery:      loadChurnEvery,
			Rates:           loadRates,
			RequestsPerStep: loadRequests,
			Arrival:         loadgen.Poisson{},
			Seed:            cfg.Seed,
		})
		if err != nil {
			return loadgen.Report{}, err
		}
		s := loadgen.Scenario{
			Name: sc.name, Backend: "sim", Clock: "virtual", Arrival: loadgen.Poisson{}.Name(),
			Devices: sc.devices, Steps: steps,
			KneeQPS: stats.KneeQPS, ChurnEvents: stats.ChurnEvents, Outages: stats.Outages,
		}
		for _, slo := range slos {
			res, err := slo.Eval(steps)
			if err != nil {
				return loadgen.Report{}, err
			}
			s.SLOs = append(s.SLOs, res)
		}
		rep.Scenarios = append(rep.Scenarios, s)
	}
	return rep, nil
}
