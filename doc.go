// Package dsi is a reproduction, at simulation scale, of "Understanding
// Data Storage and Ingestion for Large-Scale Deep Recommendation Model
// Training" (Zhao et al., ISCA 2022): Meta's end-to-end DSI pipeline —
// Scribe/LogDevice log transport, ETL into a Hive-style warehouse of
// DWRF columnar files on a Tectonic-style distributed filesystem, and
// the disaggregated Data PreProcessing Service (DPP) feeding GPU
// trainers.
//
// The DPP worker does one thing per split — extract, transform, load —
// and one function, Worker.evalSplit (internal/dpp/eval.go), is the
// only place a split becomes tensors: it names the split's two
// content-addressed wares (decoded stripe, transformed stripe) and
// evaluates plan(decode(fetch)) with the node's ware cache as the memo
// table at both levels, through a per-warehouse reader cache and pooled
// decode buffers. Worker.Run is one pool of goroutines, each running
// the step that evaluates a split and delivers it into one bounded
// buffer, whose backpressure keeps per-session memory finite;
// Worker.ProcessOneSplit is the same step on the caller's goroutine,
// the reference loop experiments and parity tests drive. The knobs live
// in dpp.SessionSpec.Pipeline (the pool size is Prefetchers +
// TransformParallelism; the buffered-byte bound) and surface as
// cmd/dppd flags. Worker.Report
// (ResourceReport) is what the worker measured and nothing else: bytes
// fetched, wanted, decoded and sent, rows, batches, the transform
// plan's op-catalogue tallies, and busy time by phase (fetch / decode /
// transform / deliver, the paper's Figure 9 breakdown). The paper's
// cost model — cycles per byte, the TLS memory tax, a node's bottleneck
// — is applied to that report offline, beside the experiments that
// print it (internal/experiments/costmodel.go), and never rides a
// session. A heartbeat (WorkerStats) carries only what the control
// plane reads: the fleet heartbeat the windowed minimum of the batches
// queued for trainers (in the worker's buffer or its stream windows,
// whichever ran lower) and the evaluators' busy fraction for the
// scaler, a pipeline's session heartbeat the recovery counters for
// Master.Recovery.
//
// The transform stage itself runs compiled: transforms.Graph lowers its
// topo-sorted op DAG into a slot-indexed transforms.Plan
// (transforms.CompilePlan) that resolves every feature ID to a
// dense/sparse slot once per process per op list, fuses chains of
// elementwise dense ops into single passes, and draws output columns
// from a per-worker pooled
// column arena (dwrf.Arena). Stripes decode straight into arena batches
// through streaming column decoders, and the worker releases each batch
// (dwrf.Batch.Release) once tensor.FrameWriter has written each row
// range straight into its BatchSize-row wire frame (one pass, no
// whole-split intermediate and no tensor batch), so steady-state
// preprocessing recycles the same buffers split after split. The plan also names what a session
// delivers: Graph.TensorOutputs files every output no op consumes by the
// slot kind the compiler assigned it, and every session builder takes
// DenseOut/SparseOut from it. The plan
// is the worker's only executor (a graph that does not compile fails
// NewWorker); the transforms.Graph.Run interpreter stays as the
// reference a golden parity suite pins plans against, byte for byte.
// BenchmarkTransformGraph measures the delta (the transform stage drops
// from 9365 to 5 allocations per batch).
//
// The worker→trainer hot path is a zero-copy framed streaming data
// plane, and on the worker the frame is the batch: tensor.FrameWriter
// writes each BatchSize-row range of a transformed split once, straight
// into a pooled stream frame that already carries the stream header and
// the (split, seq) provenance, and that frame is what the worker
// buffers, sends with one write, requeues after a broken stream and
// recycles after a grant. The frame is TBF2 (tensor/wire.go): sparse
// indices are stored in the bytes their batch's largest index needs —
// at most 3 for the standard graph's 20-bit buckets, where the first
// frame version spent 8 — so a row crosses the wire in ~309 bytes
// instead of ~699. Trainers decode each frame (tensor.DecodeBinary)
// into one pooled slab of i64 tensors returned with Batch.Release, and
// the offline bypass (dpp.Worker.Sink) decodes the same bytes. Workers
// push frames over one credit-windowed TCP stream per client — loopback
// when trainer and fleet share a process — with no per-batch round trip
// and without the reflection-driven (de)serialization share of the
// paper's "datacenter tax" (§6.2). It is the only worker→trainer wire:
// one hello layout, one frame layout (data plane version 3), every
// frame tagged with its (split, seq) provenance and a tagged frame's
// seq checked against its seq count, every length off the socket
// bounded. It replaced a gob-unary net/rpc plane at ~3.5x lower
// per-batch latency and ~99% less garbage on the standard session
// shape.
//
// The DPP control plane is one dpp.Service, multi-tenant as the paper's
// DPP actually is: a session registry (CreateSession / RestoreSession /
// CloseSession / ListSessions, in process or over RPC) with one Master
// — the per-session split ledger — per session, above one shared
// elastic fleet of session-aware workers; a single training job is a
// Service with one session. It closes the paper's auto-scaling loop
// (§3.2.1): a dpp.Orchestrator periodically evaluates the fleet's
// heartbeats and launches or drains fleet workers through a
// WorkerLauncher (dpp.FleetLauncher: goroutines, each serving its data
// plane on a loopback listener, that call the service in process or
// over RPC once given its address),
// holding every launch and drain for the two steps after a drain; it
// counts steps, not time, so tests drive the controller
// deterministically by calling Step. Each FleetWorker runs one pipeline
// per assigned session behind a single data-plane listener that
// demultiplexes streams by the session ID in their hello; pool size
// tracks tenant-aggregated starvation while a weighted fair-share
// rebalance (SessionSpec.Weight, largest-remainder apportionment) keeps
// every tenant's worker allocation within one worker of its quota.
// Over RPC every Master and Service call crosses TCP as one
// dpp.ControlCall, tagged with its op, and comes back as one
// dpp.ControlReply, on the one net/rpc method that stands in for the
// paper's Thrift service.
// Pipelines register a data-plane endpoint with their session's
// master, receive a graceful drain signal, retire by serving out their
// buffers, and deregister; clients resolve live membership from the
// session's master (dpp.NewTenantClient) and rebalance connections as
// the pool resizes, so a session scales up and back down mid-flight
// while delivering every row exactly once. Service.Checkpoint,
// DecodeServiceCheckpoint and Service.RestoreSession are the failover
// round trip. The "scaling" experiment reproduces the headline: under a
// mid-session trainer-speed shift the auto-scaled pool achieves a lower
// data-stall rate than a fixed minimal pool.
// Exactly-once delivery is hardened against non-graceful worker death:
// splits complete at the master only when their batches are consumed
// (not merely buffered), every batch carries (Split, Seq) provenance,
// and trainer clients deduplicate the redelivered overlap when a
// crashed worker's requeued leases re-run. Liveness is decided once:
// the service declares a fleet worker dead when its fleet heartbeat
// falls silent (Service.ReapDead) and deregisters it at every session
// master, which requeues its leases — the crash fault-injection
// harness (Worker.Crash, the fleet launchers' Crash) and the EndToEnd
// crash/multi-tenant checksum tests pin the guarantee on both data
// planes. The "multitenant" experiment measures weighted fair sharing
// with real concurrent sessions over one fleet.
//
// The ingestion path closes the loop of §3.1 as a live stream: serving
// hosts log paired feature/event records through scribe into
// LogDevice-backed categories, a continuously running etl.Pipeline
// joins and labels them, and sealed DWRF partitions publish atomically
// (seal == visibility, with a generation counter per table) into an
// unbounded warehouse table. Durable resume cursors (etl.CursorStore's
// intent → seal → commit write-ahead log) make crash recovery
// exactly-once: an uncommitted intent is adopted only if its partition
// became visible. A DPP session opens the table live
// (SessionSpec.Unbounded) — the master discovers splits as the ETL
// seals partitions, idle workers wait on Table.Changed() (closed on
// every seal) instead of polling the generation, and the session ends
// only when the producer closes its Scribe categories.
// Completed splits record event-time→trainer freshness lag
// (Master.Freshness); the "ingest" experiment shows the lag bounded and
// flat, and `dppd -role ingest` demos the whole loop over TCP. It is
// the only ETL path: cmd/dsigen and examples/trainpipeline serve
// their requests, close the categories and run the same etl.Pipeline to
// end of stream.
//
// The storage read path is self-healing under an injectable fault
// plane: a seeded faults.Schedule marks nodes down, flaky, slow, or
// silently corrupting over virtual-clock windows, and tectonic reads
// recover through health-ranked replica failover with capped jittered
// backoff, hedged second reads past an adaptive latency threshold
// (tectonic.Options.Retry), and typed retryable-vs-permanent errors
// (tectonic.IsRetryable). dwrf verifies stripe content hashes and heals
// corrupt footers on open, quarantining condemned replicas out of the
// rotation and refetching from the rest; a split that exhausts its
// retry budget is released back to the master and requeued under a
// per-split poison budget (SessionSpec.RetryBudget), so one bad replica
// degrades throughput instead of failing the session. The recovery
// counters are declared once (dwrf.Recovery) and ride dwrf.ReadStats →
// ResourceReport → WorkerStats, the session heartbeat, to the session
// master, whose Recovery total outlives the workers that reported them.
// There is one read path and the schedule is an input to it: the paper's
// experiments run with none installed, where every chunk is served by
// its primary and nothing is ranked, filtered or hedged (`bash
// bench/run.sh` reports the recovery work as tectonic.read_retries, zero
// on a healthy cluster), and TestEndToEndChecksumStorageChaos pins exact
// per-tenant checksums under a seeded storm; cmd/dppd installs one with
// -fault-seed.
//
// The ingestion write path heals the same way: write-shaped fault
// windows (failed and torn appends; failing seals) draw from the
// same seeded schedule, and every append carries a write token —
// tectonic keys a per-file ledger by path@offset, LogDevice a
// per-stream ledger by Scribe message token — so retries after a torn
// ack dedup against the record that already landed instead of
// duplicating it. Placement rescores rendezvous order by write health
// to route new chunks around down nodes, scribe.Daemon requeues the
// unsent tail of a failed flush ahead of everything logged since (so no
// message overtakes another, in or across categories), and
// etl.Pipeline re-produces a
// failed partition byte-identically from its base checkpoint under a
// bounded retry budget — aborting the orphan file, restoring the
// joiner, and poisoning the pipeline with a typed error past the
// budget. Write recovery counters are the cluster's own WriteTrace,
// summed per writer (dwrf.WriteStats is that type) and surfaced by
// Pipeline.WriterStats; the one append path keeps no ledger and draws no
// verdict while nothing is scheduled or condemned (`bash bench/run.sh
// --workload ingest_write` reports etl.write_retries, zero on a healthy
// cluster). TestEndToEndStreamingIngestChaos pins exact per-tenant
// checksums through a combined write+read storm, and `dppd -role ingest
// -write-fault-seed` demos the storm over TCP.
//
// The implementation lives under internal/; see README.md for the
// architecture overview and internal/experiments/testdata/golden/ for
// the paper-vs-measured reference run, one file per experiment, that
// tier-1 holds every experiment to; `go run ./cmd/dsibench` prints every
// table and figure of the paper's evaluation.
package dsi
