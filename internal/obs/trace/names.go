package trace

// Span names and attribute keys wired through the stack. Instrumentation
// sites and tests agree on these the same way metric names are shared
// through internal/obs/names.go.
const (
	// SpanQueryVec / SpanQueryMat are the engine query layer's root spans,
	// one per user MulVec / MulMat.
	SpanQueryVec = "engine.query.vec"
	SpanQueryMat = "engine.query.mat"
	// SpanCoalesceWait is a caller's wait inside a coalescing batch; its
	// EventCoalesced records the merged round it was served by.
	SpanCoalesceWait = "engine.coalesce.wait"
	// SpanEngineRound is one coalesced execution round (child of the round
	// leader's query span).
	SpanEngineRound = "engine.round"
	// SpanDecode is the user-side decode stage.
	SpanDecode = "engine.decode"

	// SpanFleetGather is one fleet-wide gather (all blocks).
	SpanFleetGather = "fleet.gather"
	// SpanFleetBlock is one logical block's fetch: the replica race with
	// its hedges, failovers, and retry rounds as events.
	SpanFleetBlock = "fleet.block"
	// SpanFleetAttempt is a single replica attempt inside a race. Its
	// AttrDevice/AttrHedged/AttrWin attributes say which device ran it, how
	// it was launched and whether it won; the fleet session keeps the same
	// outcomes on its per-device straggler records without a tracer.
	SpanFleetAttempt = "fleet.attempt"

	// SpanRPCClient wraps one transport round trip on the client side.
	SpanRPCClient = "rpc.client"
	// SpanRPCServer is the device server's handling of one request;
	// SpanDeviceCompute is the B_j·T·x kernel execution inside it. Both are
	// re-emitted to the client through the response frame.
	SpanRPCServer     = "rpc.server"
	SpanDeviceCompute = "device.compute"

	// SpanAdaptReplan is one adaptive control cycle: estimator snapshot →
	// TA2 on learned costs → hysteresis verdict. Its EventAdopt/EventHold
	// records the decision; an adopted cycle parents a SpanAdaptMigrate.
	SpanAdaptReplan = "adapt.replan"
	// SpanAdaptMigrate is one executed migration: the rehost pushes or the
	// drain-and-swap reshape that installs an adopted plan.
	SpanAdaptMigrate = "adapt.migrate"
)

// Shared attribute keys.
const (
	// AttrDevice is a device address (sim/<block>/<replica> if simulated).
	AttrDevice = "device"
	// AttrBlock is a logical coded-block index in scheme order.
	AttrBlock = "block"
	// AttrKind is a transport request kind (store|compute|compute-batch|ping)
	// or a query kind (vec|mat).
	AttrKind = "kind"
	// AttrHedged marks a replica attempt launched speculatively ("true").
	AttrHedged = "hedged"
	// AttrWin marks the attempt that won its block race ("true").
	AttrWin = "win"
	// AttrBatch is a coalesced round's caller count.
	AttrBatch = "batch"
	// AttrBackend is the engine backend (local|sim|fleet).
	AttrBackend = "backend"
	// AttrRound is a retry round index within a block fetch.
	AttrRound = "round"
)

// Event names.
const (
	// EventHedge fires on the block span when a speculative attempt
	// launches.
	EventHedge = "hedge"
	// EventFailover fires when a failed attempt hands over to the next
	// replica within a round.
	EventFailover = "failover"
	// EventRetry fires when a whole round failed and the fetch backs off
	// before re-racing.
	EventRetry = "retry"
	// EventBreakerSkip fires when a replica was excluded because its
	// circuit breaker is open.
	EventBreakerSkip = "breaker-skip"
	// EventVirtualTrace names, in its traceId attribute, the separate trace a
	// simulated fleet session ran the caller's gather in, on its clock.
	EventVirtualTrace = "virtual-trace"
	// EventCoalesced fires on a wait span when its round executes.
	EventCoalesced = "coalesced"
	// EventAdopt / EventHold fire on an adapt.replan span when the candidate
	// plan is adopted for migration or held back (hysteresis, cooldown, or
	// insufficient improvement).
	EventAdopt = "adopt"
	EventHold  = "hold"
)
