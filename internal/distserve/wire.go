package distserve

import (
	"time"

	"splitcnn/internal/buildinfo"
	"splitcnn/internal/trace"
)

// Wire types for the Shard RPC service (net/rpc over TCP, gob-encoded).
// Four methods:
//
//	Shard.Eval    router → worker   evaluate one shard of one request
//	Shard.Halo    worker → worker   fetch boundary rows of an earlier stage
//	Shard.Health  router → worker   liveness + capacity + model signature
//	Shard.Metrics router → worker   snapshot the worker's metrics registry
//
// Request identity is attempt-scoped: the router mints a fresh ReqID
// per retry attempt, so halo rows published by a failed gang can never
// be consumed by its replacement.

// EvalArgs asks a worker to evaluate shard Shard of a Shards-wide gang.
type EvalArgs struct {
	// ReqID uniquely names this (request, attempt); it keys the halo
	// exchange on every gang member.
	ReqID string
	// Model is the router's plan signature; the worker rejects
	// mismatches before touching the exchange.
	Model string
	// Shard / Gang: this worker computes band Shard of len(Gang) and
	// fetches halos from Gang[i] (its own address included, unused).
	Shard int
	Gang  []string
	// TimeoutMs is the remaining request budget; every internal wait is
	// bounded by it.
	TimeoutMs int64
	// Rows holds image rows [RowLo, RowHi) in NCHW row-band layout
	// (C contiguous blocks of (RowHi−RowLo)×W floats) — exactly the
	// band Plan.ImageRange assigns this shard.
	RowLo, RowHi int
	Rows         []float32
	// Sampled marks the request as trace-sampled at the router: the
	// worker returns its spans in the reply.
	Sampled bool
}

// EvalReply carries the shard's band of the final prefix stage.
type EvalReply struct {
	// RowLo/RowHi is the band of final-stage output rows (may be empty
	// for small feature maps sharded wide).
	RowLo, RowHi int
	// Data is the band in NCHW row-band layout (C × rows × W).
	Data []float32
	// Sampled requests only: the handler's start on the worker's wall
	// clock and its duration on the worker's monotonic clock, which the
	// router sets against its own timing of the call to place Spans;
	// Spans are the stage and halo spans of this shard, plus the
	// halo_serve spans its fetches brought back from their owners.
	StartUnixNano int64
	Dur           time.Duration
	Spans         []WireSpan
}

// HaloArgs requests rows [Lo, Hi) of stage Stage's output for request
// ReqID. The receiving worker blocks (up to TimeoutMs) until its own
// evaluation publishes that stage.
type HaloArgs struct {
	ReqID     string
	Stage     int
	Lo, Hi    int
	TimeoutMs int64
}

// HaloReply carries the rows in NCHW row-band layout, and the interval
// the serving worker waited for them on its own wall clock, which a
// sampled fetcher passes on as a halo_serve span.
type HaloReply struct {
	Data                       []float32
	WaitStartNano, WaitEndNano int64
}

// HealthArgs is empty; the method exists to probe liveness.
type HealthArgs struct{}

// HealthReply reports worker identity and capacity for the router's
// health loop and least-loaded dispatch.
type HealthReply struct {
	// Model is the worker's plan signature; routers eject workers whose
	// signature differs from their own (wrong arch or stale weights).
	Model string
	// InFlight / MaxPods: current and maximum concurrent shard
	// evaluations (the per-pod capacity limit).
	InFlight int
	MaxPods  int
	// Build identifies the worker binary (version/commit), so mixed-
	// version gangs are detectable from /v1/workers at a glance.
	Build buildinfo.Info
}

// WireSpan is one worker-recorded span on the wall clock of the worker
// named by Shard: the worker that recorded it, or for a relayed
// halo_serve, the owner that served the rows. Parent names the span it
// nests under on that worker; empty parents it under the router's
// scatter_gather.
type WireSpan struct {
	Name          string
	Parent        string
	Shard         int
	StartUnixNano int64
	EndUnixNano   int64
}

// MetricsArgs is empty; the method snapshots the worker's registry.
type MetricsArgs struct{}

// MetricsReply carries one tear-free snapshot of the worker's metrics
// registry for federation into the router's /clusterz.
type MetricsReply struct {
	Snap trace.Snapshot
}

// bandLen returns the float count of a C-channel row band.
func bandLen(c, rows, w int) int { return c * rows * w }
