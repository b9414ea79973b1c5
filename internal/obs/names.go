package obs

import (
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"
)

// Metric names wired through the stack. Real transport runs and simulated
// runs use the same names so their exports are directly comparable; the
// README's Observability section documents each one.
const (
	// MetricStageSeconds is the per-stage latency histogram, labelled
	// stage=allocate|encode|store|compute|gather|decode. Real runs observe
	// wall-clock durations; internal/sim observes virtual-clock durations.
	MetricStageSeconds = "scec_stage_duration_seconds"
	// MetricStageLastSeconds is a gauge holding the most recent duration of
	// each stage, for cheap "what just happened" introspection.
	MetricStageLastSeconds = "scec_stage_last_seconds"

	// Client-side (user/cloud role) RPC metrics, labelled by request kind
	// (store|compute|compute-batch|ping).
	MetricRPCClientRequests = "scec_rpc_client_requests_total"
	MetricRPCClientErrors   = "scec_rpc_client_errors_total"
	MetricRPCClientSeconds  = "scec_rpc_client_latency_seconds"
	MetricRPCClientSent     = "scec_rpc_client_sent_bytes_total"
	MetricRPCClientReceived = "scec_rpc_client_received_bytes_total"

	// Device-server-side RPC metrics, labelled by request kind; malformed
	// requests that never decode are counted under kind="malformed".
	MetricRPCServerRequests = "scec_rpc_server_requests_total"
	MetricRPCServerErrors   = "scec_rpc_server_errors_total"
	MetricRPCServerSeconds  = "scec_rpc_server_latency_seconds"
	MetricRPCServerRead     = "scec_rpc_server_read_bytes_total"
	MetricRPCServerWritten  = "scec_rpc_server_written_bytes_total"

	// MetricKernelDispatchTotal counts dense-kernel executions in
	// internal/matrix, labelled op=mul|mulvec|add|sub and
	// mode=serial|parallel — at most 8 series, so the one decision the
	// kernel layer makes per call (sharded vs. single-core) is directly
	// observable on /metrics.
	MetricKernelDispatchTotal = "scec_kernel_dispatch_total"

	// Fleet-runtime (internal/fleet) metrics. Label sets are bounded by
	// construction, following the scec_kernel_dispatch_total convention:
	// device labels range over the fixed provisioned fleet, block labels
	// over the scheme's device count, kind over {vec, mat}, and outcome
	// over {ok, failed}.

	// MetricFleetQueriesTotal counts queries served by a fleet session,
	// labelled kind=vec|mat.
	MetricFleetQueriesTotal = "scec_fleet_queries_total"
	// MetricFleetQueryErrorsTotal counts queries that failed after
	// exhausting every replica, retry, and hedge, labelled kind=vec|mat.
	MetricFleetQueryErrorsTotal = "scec_fleet_query_errors_total"
	// MetricFleetHedgesTotal counts speculative (hedged) replica requests
	// launched because the leading attempt outlived the hedge delay.
	MetricFleetHedgesTotal = "scec_fleet_hedges_total"
	// MetricFleetRetriesTotal counts replica attempts launched because a
	// prior attempt failed — both in-race failovers and fresh backoff
	// rounds.
	MetricFleetRetriesTotal = "scec_fleet_retries_total"
	// MetricFleetRepairsTotal counts self-repair pushes of a coded block to
	// a warm standby, labelled outcome=ok|failed.
	MetricFleetRepairsTotal = "scec_fleet_repairs_total"
	// MetricFleetBreakerState is a per-device gauge (label device=<addr>) of
	// the circuit-breaker state: 0 closed, 1 half-open, 2 open.
	MetricFleetBreakerState = "scec_fleet_breaker_state"
	// MetricFleetDeviceRTT is a per-device gauge (label device=<addr>) of the
	// session's most recent round-trip time to the device in seconds — the
	// connection's negotiation handshake or the fleet prober's latest ping,
	// read through transport.Client.LastRTT. The adaptive control plane
	// prices a device's network by the same signal.
	MetricFleetDeviceRTT = "scec_fleet_device_rtt_seconds"
	// MetricFleetBlockWinnerSeconds is a per-block histogram (label
	// block="j", scheme order) of the latency of the winning replica
	// attempt for each served block fetch.
	MetricFleetBlockWinnerSeconds = "scec_fleet_block_winner_seconds"
	// MetricFleetRehostsTotal counts live block migrations (adaptive rehost
	// pushes of a block to a new device), labelled outcome=ok|failed.
	MetricFleetRehostsTotal = "scec_fleet_rehosts_total"

	// Adaptive-control-plane (internal/adapt) metrics. Label sets are
	// bounded: outcome/reason/kind over small fixed enumerations, device
	// over the provisioned fleet (the MetricFleetBreakerState convention).

	// MetricAdaptReplansTotal counts re-planning decisions, labelled
	// outcome=adopted|held (held = hysteresis, cooldown, or no improvement
	// kept the incumbent).
	MetricAdaptReplansTotal = "scec_adapt_replans_total"
	// MetricAdaptMigrationsTotal counts executed plan migrations, labelled
	// kind=rehost|reshape and outcome=ok|failed.
	MetricAdaptMigrationsTotal = "scec_adapt_migrations_total"
	// MetricAdaptBlocksMovedTotal counts individual coded blocks pushed to a
	// new device by adaptive migrations.
	MetricAdaptBlocksMovedTotal = "scec_adapt_blocks_moved_total"
	// MetricAdaptPlanCost is a gauge of the incumbent plan's expected cost
	// at the current learned unit costs.
	MetricAdaptPlanCost = "scec_adapt_plan_cost"
	// MetricAdaptPlanR is a gauge of the incumbent plan's number of random
	// rows r.
	MetricAdaptPlanR = "scec_adapt_plan_r"
	// MetricAdaptDeviceFactor is a per-device gauge (label device=<addr>) of
	// the learned slowdown factor relative to the fleet baseline (1 =
	// nominal).
	MetricAdaptDeviceFactor = "scec_adapt_device_factor"

	// Execution-engine (internal/engine) metrics. Label sets are bounded:
	// backend ranges over the three executor implementations and kind over
	// the two query shapes.

	// MetricEngineDispatchTotal counts executor invocations made by the
	// engine's query layer, labelled backend=local|sim|fleet and
	// kind=vec|mat. A coalesced round that merged several MulVec callers
	// counts as one kind="mat" dispatch.
	MetricEngineDispatchTotal = "scec_engine_dispatch_total"
	// MetricEngineCoalescedBatchSize is a histogram (label
	// backend=local|sim|fleet) of how many concurrent MulVec callers each
	// coalesced execution round merged; size-1 rounds are observed too, so
	// the count is the number of rounds and the sum is the number of
	// callers served through the coalescer.
	MetricEngineCoalescedBatchSize = "scec_engine_coalesced_batch_size"

	// Load-generator (internal/loadgen) metrics. The harness keeps its exact
	// quantiles in its own log-bucketed recorder; these series surface the
	// generator's activity on /metrics while a sweep runs.

	// MetricLoadRequestsTotal counts generator-issued requests, labelled
	// outcome=ok|error|shed (shed = the MaxInFlight backstop refused launch).
	MetricLoadRequestsTotal = "scec_load_requests_total"
	// MetricLoadInFlight is a gauge of requests currently outstanding at the
	// generator.
	MetricLoadInFlight = "scec_load_inflight"
	// MetricLoadOfferedQPS is a gauge of the current open-loop run's offered
	// load in requests/second.
	MetricLoadOfferedQPS = "scec_load_offered_qps"

	// MetricBuildInfo is a constant-1 gauge carrying the binary's identity as
	// labels (go_version, module, version), the Prometheus build-info idiom;
	// registered by the telemetry Handler.
	MetricBuildInfo = "scec_build_info"

	// Wire-protocol (internal/transport v4) metrics. Device labels range over
	// the fixed fleet (the MetricFleetBreakerState convention), role over
	// {client, server}, and outcome over small fixed sets, so cardinality
	// stays bounded.

	// MetricTransportConnsOpen is a gauge of currently open transport
	// connections, labelled role=client|server and device=<addr>.
	MetricTransportConnsOpen = "scec_transport_conns_open"
	// MetricTransportStreamsInflight is a gauge of v4 streams currently
	// awaiting a response, labelled role=client|server and device=<addr>.
	MetricTransportStreamsInflight = "scec_transport_streams_inflight"
	// MetricTransportFlushFrames is a histogram of how many frames each
	// write-batcher flush pushed to the socket in one syscall, labelled
	// role=client|server. Size-1 flushes are the idle case; larger batches
	// are the group-commit effect under concurrent streams.
	MetricTransportFlushFrames = "scec_transport_flush_frames"
	// MetricTransportNegotiations counts hello handshakes on freshly dialed
	// connections, labelled outcome=v4|error.
	MetricTransportNegotiations = "scec_transport_negotiations_total"

	// Flight-recorder (internal/obs/flight) metrics. The kind label ranges
	// over the fixed event-kind enumeration, so cardinality is bounded.

	// MetricFlightEventsTotal counts events published to the flight-recorder
	// journal, labelled kind=<event kind wire name>; kind="incident" counts
	// the watchdog's captured bundles.
	MetricFlightEventsTotal = "scec_flight_events_total"
)

// Pipeline stage names, the values of the stage label on
// MetricStageSeconds/MetricStageLastSeconds.
const (
	StageAllocate = "allocate" // TA1 task allocation
	StageEncode   = "encode"   // cloud-side package coding B_j·T
	StageStore    = "store"    // pushing coded blocks to the fleet
	StageCompute  = "compute"  // device-side B_j·T·x (per device)
	StageGather   = "gather"   // broadcast x + collect intermediate results
	StageDecode   = "decode"   // user-side m subtractions
)

// Stages lists every pipeline stage in execution order.
var Stages = []string{StageAllocate, StageEncode, StageStore, StageCompute, StageGather, StageDecode}

// stageHelp documents the stage histogram family.
const (
	stageHelp     = "Pipeline stage duration in seconds (wall clock for real runs, virtual clock for simulated runs)."
	stageLastHelp = "Most recent duration of each pipeline stage in seconds."
)

// ObserveStage records one stage duration (histogram + last-value gauge).
// A nil registry records into Default().
func ObserveStage(r *Registry, stage string, d time.Duration) {
	if r == nil {
		r = Default()
	}
	l := L("stage", stage)
	r.Histogram(MetricStageSeconds, stageHelp, DefLatencyBuckets, l).ObserveDuration(d)
	r.Gauge(MetricStageLastSeconds, stageLastHelp, l).Set(d.Seconds())
}

// StageRecorder records stage durations into one registry, as ObserveStage
// does, through series handles it resolves on each stage's first record. A
// component on a hot path keeps one, so a stage costs no family or series
// lookup by label string; as with ObserveStage, nothing is minted before a
// stage records.
type StageRecorder struct {
	reg    *Registry
	stages []atomic.Pointer[stageSeries] // indexed like Stages
}

// stageSeries is one stage's histogram and last-value gauge.
type stageSeries struct {
	hist *Histogram
	last *Gauge
}

// NewStageRecorder returns a recorder for r; a nil r records into Default().
func NewStageRecorder(r *Registry) *StageRecorder {
	if r == nil {
		r = Default()
	}
	return &StageRecorder{reg: r, stages: make([]atomic.Pointer[stageSeries], len(Stages))}
}

// Observe records one stage duration (histogram + last-value gauge).
func (s *StageRecorder) Observe(stage string, d time.Duration) {
	i := slices.Index(Stages, stage)
	if i < 0 {
		ObserveStage(s.reg, stage, d)
		return
	}
	ss := s.stages[i].Load()
	if ss == nil {
		ss = &stageSeries{hist: s.reg.Histogram(MetricStageSeconds, stageHelp, DefLatencyBuckets, L("stage", stage))}
		ss.last = s.reg.Gauge(MetricStageLastSeconds, stageLastHelp, L("stage", stage))
		s.stages[i].Store(ss)
	}
	ss.hist.ObserveDuration(d)
	ss.last.Set(d.Seconds())
}

// Start starts timing a stage against the wall clock; End records it here.
func (s *StageRecorder) Start(stage string) Span {
	return Span{rec: s, stage: stage, start: time.Now()}
}

// Span is an in-flight stage timing started by StartStage or
// StageRecorder.Start.
type Span struct {
	reg   *Registry
	rec   *StageRecorder
	stage string
	start time.Time
}

// StartStage starts timing a pipeline stage against the wall clock. A nil
// registry records into Default().
func StartStage(r *Registry, stage string) Span {
	return Span{reg: r, stage: stage, start: time.Now()}
}

// End records the elapsed time and returns it.
func (s Span) End() time.Duration {
	d := time.Since(s.start)
	if s.rec != nil {
		s.rec.Observe(s.stage, d)
	} else {
		ObserveStage(s.reg, s.stage, d)
	}
	return d
}

// WriteStageTable renders a human-readable per-stage timing table from the
// registry's stage histogram, in pipeline order: observation count, last,
// mean, and total duration. Stages never observed are omitted; nothing is
// printed when no stage ran. A nil registry reads Default().
func WriteStageTable(w io.Writer, r *Registry) error {
	if r == nil {
		r = Default()
	}
	type row struct {
		stage             string
		count             int64
		last, mean, total float64
	}
	var rows []row
	for _, stage := range Stages {
		labels := []Label{L("stage", stage)}
		s := r.find(MetricStageSeconds, labels)
		if s == nil || s.hist == nil || s.hist.Count() == 0 {
			continue
		}
		h := s.hist
		n := h.Count()
		var last float64
		if ls := r.find(MetricStageLastSeconds, labels); ls != nil && ls.gauge != nil {
			last = ls.gauge.Value()
		}
		rows = append(rows, row{stage, n, last * 1e3, h.Sum() / float64(n) * 1e3, h.Sum() * 1e3})
	}
	if len(rows) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "stage     count    last-ms    mean-ms   total-ms\n"); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintf(w, "%-8s %6d %10.3f %10.3f %10.3f\n",
			row.stage, row.count, row.last, row.mean, row.total); err != nil {
			return err
		}
	}
	return nil
}
