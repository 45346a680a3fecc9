// Package dpp implements the paper's primary contribution: the Data
// PreProcessing Service (§3.2.1), a disaggregated online-preprocessing
// service that reads raw training data from storage, transforms it into
// ready-to-load tensors, and serves them to trainers.
//
// DPP divides into a control plane and a data plane:
//
//   - The Master (control plane) is one session's split ledger: it
//     breaks the preprocessing workload into self-contained splits,
//     serves them to Workers, tracks progress, checkpoints reader
//     state, requeues the leases of Workers that leave (the Service
//     declares the dead), and resolves the session's live worker
//     membership (ListWorkers) for clients.
//   - Workers (data plane) are stateless: they register a data-plane
//     endpoint, pull the transformation spec at startup, then do one
//     thing per leased split — extract, transform, load. evalSplit
//     (eval.go) is the only place a split becomes tensors, memoised at
//     the decoded and the transformed level in the node's ware cache,
//     and it writes the transformed split straight into its
//     BatchSize-row batches as ready-to-send stream frames
//     (tensor.FrameWriter) in one pass — no tensor batch is built on
//     the worker; Run is one pool of goroutines each running the step
//     that calls it and delivers into one bounded buffer of frames,
//     which applies backpressure — sized by SessionSpec.Pipeline and
//     observable by phase via Worker.Report — and ProcessOneSplit is
//     the same step on the caller's goroutine. A drained worker
//     finishes its in-flight splits, serves out its buffer (Retire),
//     and deregisters, so shrinking the pool never loses rows.
//   - Clients run on trainer nodes and fetch tensors from Workers with
//     partitioned round-robin routing. A session client
//     (NewSessionClient, NewTenantClient) resolves membership from the
//     session's Master and rebalances its connections as the pool
//     grows and shrinks mid-session; NewClient keeps the frozen-set
//     behaviour for a fixed pool of Workers over one Master.
//
// Elastic operation has one control plane, the Service — the paper's
// actual deployment shape, one shared preprocessing fleet multiplexed
// across many simultaneous training jobs. A single job is a Service
// with one session:
//
//   - The Service hosts a session registry (CreateSession /
//     RestoreSession / CloseSession / ListSessions) with one Master
//     per session, and a fleet registry of session-aware
//     FleetWorkers. At every worker registration and every control
//     Step it re-divides the live fleet among active sessions by
//     weighted fair share (SessionSpec.Weight, largest-remainder
//     apportionment, within one worker of each tenant's quota);
//     assignments reach workers with their fleet heartbeats.
//   - A FleetWorker runs one pipeline (a Worker) per assigned session
//     behind one shared data-plane listener; a stream's hello carries
//     the session ID that routes it to the right pipeline. Revoking an
//     assignment drains the pipeline through the ordinary drain
//     protocol, so rebalancing never loses rows.
//   - The Orchestrator closes the auto-scaling loop around the
//     Service: it periodically evaluates the fleet heartbeats with the
//     AutoScaler policy and launches or drains fleet members through a
//     WorkerLauncher (FleetLauncher: goroutine workers, each serving
//     its data plane on a loopback listener, that call the Service in
//     process or over RPC once given its address), reaps retired
//     members, and takes periodic checkpoints covering every session
//     (DecodeServiceCheckpoint + RestoreSession re-host them on a
//     replica). Pool size follows tenant-aggregated starvation and
//     oversupply; the loop counts Steps, not time (the two Steps after
//     a drain neither launch nor drain), and Run takes one Step per
//     ScaleInterval, so tests drive the identical control law
//     deterministically by calling Step. Each Step first reaps
//     (Service.ReapDead): a fleet member whose fleet heartbeat has been
//     silent for FleetLeaseTimeout is the one kind of dead worker, and
//     it is deregistered at every session master. A heartbeat
//     (WorkerStats) carries exactly what the control plane reads: the
//     fleet heartbeat the windowed minimum buffer level and the
//     evaluators' busy fraction for the scaler, a pipeline's session
//     heartbeat the recovery counters for Master.Recovery.
//     Worker.Report is what a worker measured — bytes, rows, busy time;
//     pricing it with the paper's cost model is an offline reading
//     (internal/experiments), so no cost parameter rides a session and
//     no modelled quantity is accumulated or shipped.
//   - Each FleetWorker also owns a node-wide content-addressed cache
//     (ware.Cache, sized by CacheBytes) shared by every pipeline it
//     hosts: decoded stripe batches and transformed outputs are
//     published under ware IDs — stripe content digest + projection,
//     plus the transform plan fingerprint — so overlapping sessions of
//     any tenant reuse each other's decode and transform work.
//     Eviction is weight-aware (per-tenant byte floors mirroring fair
//     share), and a hit is a view over the entry's reference-counted
//     columns (see dwrf.Arena). The cache scores
//     each split's outcome once, per tenant (ware.Cache.TenantStats); a
//     session is one tenant from the moment its pipeline starts until
//     it retires, so no worker re-counts it.
//
// Delivery is exactly-once even across non-graceful worker death: a
// split is acknowledged to its master only when every batch it
// produced has been consumed by a client (a framed credit grant, or a
// gracefully rescued stream window), every batch carries (Split, Seq)
// provenance, and clients deduplicate redelivery when a crashed
// worker's requeued leases re-run. Worker.Crash and the launchers' Crash methods are the
// fault-injection harness that pins this down in tests.
//
// The control plane has two forms: the Service called in process (by
// simulations and tests) and the same Service over TCP (cmd/dppd),
// exercising the same Master/Worker/Orchestrator logic. The data plane
// has one: every batch a trainer receives crosses a framed stream, over
// loopback TCP in process as between hosts. A Client sees each stream
// as one WorkerAPI — fetch, announce, drain, close — and a stream
// server serves one frameSource contract, which Worker implements.
//
// Over TCP the control plane is one net/rpc method, "Control.Call"
// (ServeService): every Master and Service operation crosses as one
// gob-encoded ControlCall, tagged with its op, and comes back as one
// ControlReply. RemoteService and RemoteMaster are the client halves;
// a RemoteMaster's WorkChanged is one long-poll of the AwaitWork op.
//
// The worker→trainer data plane is one framed stream per
// (client, worker) pair (DialWorkerFramed / DialWorkerFramedSession,
// layout in dataplane.go): the client opens it with a hello carrying
// the session ID and a credit window; the worker answers and pushes
// length-prefixed flat-binary batch frames, each tagged with its
// (split, seq) provenance, as its delivery stage produces them,
// decrementing credit per frame. The client grants one credit per
// consumed batch, so at most a window of batches is in flight and a
// stalled trainer propagates backpressure into the worker's bounded
// buffer. A worker writes each frame once, from the transformed split
// into a recycled buffer, and sends that buffer as is; the client decodes
// it into one recycled slab of tensors the trainer returns with
// tensor.Batch.Release. ServeBatchSource serves a pop-only source the
// same way, minus the requeue below: its broken windows are lost.
// When a stream is dropped mid-session (a drained worker deregistering,
// a rebalance) the client first half-closes and rescues the received
// window on a side goroutine, and when a stream breaks abnormally
// (reset, truncated frame) the worker requeues the un-granted window
// into its buffer while the client discards its partial copy — so
// exactly-once delivery survives membership churn and transient
// connection failures alike. A worker that does not host the hello's
// session hangs up; the dial fails and Client.Refresh tries again on
// its next pass.
package dpp

import (
	"encoding/gob"
	"fmt"

	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/transforms"
)

// SessionSpec is the preprocessing workload description an ML engineer
// submits (the paper's "PyTorchDataSet" session specification): dataset
// table, partitions, required features, per-feature transformations, and
// the tensor batch size — what to compute and how to size the workers
// computing it, not what computing it would cost on some fleet.
type SessionSpec struct {
	Table      string
	Partitions []string
	// Unbounded opens the session as a live tail of a streaming table:
	// instead of fixing the split set at planning time, the master keeps
	// discovering new splits as the ETL pipeline seals partitions, and
	// the session finishes only after the producer closes the table's
	// stream AND every discovered split has completed. Requires a table
	// created with Warehouse.CreateUnboundedTable and no explicit
	// Partitions filter (an unbounded session always tails the whole
	// table). Gob-optional: absent from older specs.
	Unbounded bool
	// Features is the raw-feature projection read from storage.
	Features []schema.FeatureID
	// Ops is the transformation DAG, serialized as a flat op list (the
	// "serialized and compiled PyTorch module" Workers pull from the
	// Master).
	Ops []transforms.Op
	// DenseOut and SparseOut are the post-transform features materialized
	// into each tensor batch.
	DenseOut  []schema.FeatureID
	SparseOut []schema.FeatureID
	// BatchSize is rows per emitted tensor batch.
	BatchSize int
	// Read configures the storage read path (coalescing).
	Read dwrf.ReadOptions
	// BufferDepth is the per-worker tensor buffer capacity in batches
	// (0 = 8; negative is invalid).
	BufferDepth int
	// Pipeline sizes the worker's evaluator pool; the zero value means
	// default parallelism. Its Prefetchers and TransformParallelism are
	// one number (their sum) and collapse into one field with the next
	// benchmark change, like DataPlane below.
	Pipeline PipelineOptions
	// Weight is the session's share of the fleet under multi-tenant
	// operation: the Service divides worker capacity among live
	// sessions in proportion to their weights (weighted fair share,
	// §3.2.1's per-job capacity assignment). Zero defaults to 1; a
	// session alone in its Service gets the whole fleet whatever it is.
	Weight float64
	// DataPlane selects nothing: there is one data plane, and Validate
	// accepts only "" and DataPlaneFramed. The field remains because the
	// frozen benchmark (bench/env.go) sets it, and goes when the
	// benchmark next changes.
	DataPlane string
	// RetryBudget is the per-split poison budget: how many times a split
	// may be released back after retryable storage failures before the
	// session fails rather than requeueing a split no worker can read.
	// Zero uses DefaultSplitRetries.
	RetryBudget int
}

// PipelineOptions sizes a worker's evaluator pool (pipeline.go): a
// number of goroutines each turning one leased split at a time into
// tensors and delivering them into the worker's output buffer, so
// tensors keep draining to trainers while later splits are extracted
// and transformed — the overlap the paper's DPP workers need to avoid
// the Table 7 data stalls. The buffer is the one queue and it is
// bounded: an evaluator that finds it full waits there holding one
// evaluated split, keeping per-session memory finite (§DPP: avoid OOM
// from unbounded buffering).
//
// Prefetchers and TransformParallelism are summed: the pool runs
// Prefetchers + TransformParallelism identical evaluators, and neither
// count means anything on its own. They stay two fields because the
// frozen benchmark (bench/env.go) sets both, and become one with the
// next benchmark change.
type PipelineOptions struct {
	// Prefetchers is the first addend of the evaluator count. Default 2.
	Prefetchers int
	// TransformParallelism is the second addend of the evaluator count.
	// Default 2.
	TransformParallelism int
	// MaxBufferedBytes bounds the worker's buffer by the bytes of the
	// stream frames it holds (header, tags and TBF2 tensor frame, as
	// they go on the wire) on top of BufferDepth's batch-count bound (0
	// = count bound only). A single frame larger than the bound is
	// still admitted when the buffer is empty, so delivery always makes
	// progress.
	MaxBufferedBytes int64
}

// withDefaults fills zero fields.
func (o PipelineOptions) withDefaults() PipelineOptions {
	if o.Prefetchers <= 0 {
		o.Prefetchers = 2
	}
	if o.TransformParallelism <= 0 {
		o.TransformParallelism = 2
	}
	return o
}

// planFor clamps the evaluator count — the sum — to the session's
// actual split count; the Master applies this during session planning
// so a tiny session doesn't spin up idle evaluators on every worker.
// Each addend keeps at least 1 (zero means "default"), so the floor of
// the sum is 2.
func (o PipelineOptions) planFor(splits int) PipelineOptions {
	o = o.withDefaults()
	if splits <= 0 {
		return o
	}
	if excess := o.Prefetchers + o.TransformParallelism - max(splits, 2); excess > 0 {
		cut := min(excess, o.TransformParallelism-1)
		o.TransformParallelism -= cut
		o.Prefetchers -= excess - cut
	}
	return o
}

// Validate checks the spec for obvious misconfiguration.
func (s *SessionSpec) Validate() error {
	if s.Table == "" {
		return fmt.Errorf("dpp: session needs a table")
	}
	if s.BatchSize <= 0 {
		return fmt.Errorf("dpp: session needs a positive batch size")
	}
	if len(s.Features) == 0 {
		return fmt.Errorf("dpp: session needs a feature projection")
	}
	if s.BufferDepth < 0 {
		return fmt.Errorf("dpp: negative buffer depth %d", s.BufferDepth)
	}
	switch s.DataPlane {
	case "", DataPlaneFramed:
	default:
		return fmt.Errorf("dpp: unknown data plane %q (want %q or empty)", s.DataPlane, DataPlaneFramed)
	}
	if s.Unbounded && len(s.Partitions) > 0 {
		return fmt.Errorf("dpp: an unbounded session tails the whole table; drop the Partitions filter")
	}
	return nil
}

// withDefaults returns a copy with defaulted optional fields.
func (s SessionSpec) withDefaults() SessionSpec {
	if s.BufferDepth == 0 {
		s.BufferDepth = 8
	}
	s.Pipeline = s.Pipeline.withDefaults()
	return s
}

// Projection builds the schema projection for the spec's raw features.
func (s *SessionSpec) Projection() *schema.Projection {
	return schema.NewProjection(s.Features...)
}

// BuildGraph compiles the op list into an executable DAG.
func (s *SessionSpec) BuildGraph() (*transforms.Graph, error) {
	g := transforms.NewGraph().Add(s.Ops...)
	if err := g.Compile(); err != nil {
		return nil, err
	}
	return g, nil
}

func init() {
	// Register every transform op so SessionSpec round-trips through gob
	// for the TCP transport.
	gob.Register(&transforms.Cartesian{})
	gob.Register(&transforms.Bucketize{})
	gob.Register(&transforms.ComputeScore{})
	gob.Register(&transforms.Enumerate{})
	gob.Register(&transforms.PositiveModulus{})
	gob.Register(&transforms.IdListTransform{})
	gob.Register(&transforms.BoxCox{})
	gob.Register(&transforms.Logit{})
	gob.Register(&transforms.MapId{})
	gob.Register(&transforms.FirstX{})
	gob.Register(&transforms.GetLocalHour{})
	gob.Register(&transforms.SigridHash{})
	gob.Register(&transforms.NGram{})
	gob.Register(&transforms.Onehot{})
	gob.Register(&transforms.Clamp{})
	gob.Register(&transforms.Sampling{})
}
