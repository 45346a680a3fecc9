package dpp

import (
	"errors"
	"fmt"
	"math"
	"net/rpc"
	"strings"
	"sync"
	"time"

	"dsi/internal/dwrf"
	"dsi/internal/metrics"
	"dsi/internal/schema"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/ware"
	"dsi/internal/warehouse"
)

// ResourceReport is what the worker measured: bytes moved, rows and
// batches produced, stage busy time and storage recovery work, cumulative
// over its splits. Every field is a count or a duration, so reports add
// and subtract field by field. Pricing the counts — cycles per decoded
// byte, the TLS memory tax, a node's bottleneck (§6.3, Table 9, Figure 9)
// — is an offline reading done by whoever wants it
// (internal/experiments), not by the data path.
type ResourceReport struct {
	// Network bytes.
	NICRxBytes int64 // compressed bytes fetched from storage
	// NICTxBytes is the tensor bytes delivered to trainers, priced at
	// tensor.Batch.SizeBytes — the modelled i64 tensor footprint, not
	// the (narrower) TBF2 frame bytes the wire carries.
	NICTxBytes int64
	// StorageWantedBytes is the requested (selected-stream) subset of
	// NICRxBytes; the difference is coalescing over-read.
	StorageWantedBytes int64
	// DecodedBytes is raw payload decoded after decompression.
	DecodedBytes int64

	// XformCycles and XformMemBytes are the transform plan's own tallies
	// (transforms.Stats): each op's catalogue cost per value times the
	// values it processed, unscaled. The catalogue's costs are whole
	// numbers, so the totals are exact integers. A split answered from a
	// cached transformed ware runs no plan and adds nothing.
	XformCycles   int64
	XformMemBytes int64

	// Work counters.
	RowsIn       int64
	RowsOut      int64
	BatchesOut   int64
	SplitsDone   int64
	ResidentPeak int64 // peak buffered frame bytes (stream frames, headers included)

	// Busy wall time of the data plane by phase (fetch vs decode vs
	// transform vs deliver), cumulative across all evaluator goroutines —
	// the repository-side analogue of Figure 9's cycle breakdown.
	// DeliverBusy includes time blocked on the bounded output buffer
	// (backpressure from slow trainers).
	FetchBusy     time.Duration
	DecodeBusy    time.Duration
	TransformBusy time.Duration
	DeliverBusy   time.Duration

	// Storage self-healing counters, folded out of each split's
	// dwrf.ReadStats — delivered or released. SplitsReleased counts
	// splits this worker handed back to the master for requeue after a
	// retryable storage failure (degraded mode).
	dwrf.Recovery
	SplitsReleased int64
}

// Worker is a stateless DPP data-plane node: it pulls splits from the
// Master, extracts and transforms rows, and buffers their batches for
// Clients as ready-to-send stream frames.
type Worker struct {
	ID string
	// Endpoint is the data-plane address registered with the master
	// (empty for a worker whose clients dial its ServeWorker listener
	// directly).
	Endpoint string

	master MasterAPI
	wh     *warehouse.Warehouse
	spec   SessionSpec
	// plan is the session's op graph compiled into the slot-indexed
	// execution form.
	plan *transforms.Plan
	// arena recycles decoded and transformed column buffers: evalSplit
	// decodes stripes into arena batches, the transform plan draws output
	// columns from it, and each batch is released once its frames are
	// written. With a cache it is the cache's — the node's — arena
	// (UseCache), so columns a cached ware held outlive this session and
	// serve the next one; without a cache it is the worker's own.
	arena *dwrf.Arena
	proj  *schema.Projection
	// cache, when non-nil, is the node-wide content-addressed batch
	// cache shared by every pipeline on the node (a FleetWorker's, or
	// one a caller attaches to several workers); cacheTenant attributes
	// its hits, misses, and residency to this worker's session. Workers
	// without one leave it nil (uncached).
	cache       *ware.Cache
	cacheTenant string

	mu sync.Mutex
	// buffer holds delivered batches as their stream frames; bufBytes is
	// the frames' total length.
	buffer   frameQueue
	bufBytes int64
	// outstanding counts frames sent into framed stream windows but not
	// yet granted by a client (see dataplane.go); Retire waits for it to
	// reach zero so a worker never deregisters while rows are in flight.
	outstanding int
	finished    bool
	draining    bool
	crashed     bool
	// splits tracks per-split delivery progress. A split is acknowledged
	// to the master (CompleteSplit) only once every batch it produced has
	// been consumed by a client — not when it lands in the buffer — so a
	// worker that crashes with buffered or in-window batches leaves its
	// splits leased, the service's reap requeues them, and another
	// worker re-runs them. Clients deduplicate the partially-consumed
	// overlap by the batches' (Split, Seq) provenance tags, which
	// together makes delivery exactly-once even across non-graceful
	// worker death.
	splits map[int]splitAcct
	// completing counts CompleteSplit RPCs in flight off-lock, so Retire
	// does not deregister (requeueing leases) a moment before their acks
	// land at the master.
	completing int
	crashCh    chan struct{}
	report     ResourceReport
	// notEmpty and notFull are the consumers' and producers' wake-ups:
	// made when a waiter takes one (BatchReady, a full deliver), closed
	// and dropped by the next signal (wake), so a batch nobody waits for
	// makes no channel.
	notEmpty chan struct{}
	notFull  chan struct{}
	// settled is closed when the ledger Retire waits out moves toward
	// empty (a buffer pop, a stream window retired, a CompleteSplit ack
	// landed); allocated only while Retire waits.
	settled chan struct{}

	// The scaler's window, restarted by every sampleStats: its start
	// and the evaluators' busy time then (WorkerStats.BusyFrac), the
	// lowest buffer occupancy since, and the lowest level a grant or a
	// stream's end left the stream windows at (math.MaxInt while none
	// moved down). The lower of the two is WorkerStats.MinBuffered.
	lastStatsAt time.Time
	lastBusy    time.Duration
	minBuffered int
	minWindow   int
	// rejections counts consecutive ErrDisowned answers to the session
	// heartbeat (see heartbeat).
	rejections int

	// Stage stopwatches accumulate busy time across all pipeline
	// goroutines; Report folds them into the resource report.
	stageFetch     metrics.Stopwatch
	stageDecode    metrics.Stopwatch
	stageTransform metrics.Stopwatch
	stageDeliver   metrics.Stopwatch

	// Sink, when set, receives batches directly instead of the buffer
	// (offline measurement mode): each frame decoded, as a client would
	// decode it off the stream, and the sink's to Release. It is always
	// invoked from a single goroutine at a time: every evaluator
	// delivers, and sinkMu serialises their calls.
	Sink   func(*tensor.Batch)
	sinkMu sync.Mutex

	// heartbeatEvery is the session heartbeat period: a fleet worker's
	// pipelines take its period, every other worker the default.
	heartbeatEvery time.Duration
}

// defaultHeartbeatEvery is the worker and fleet heartbeat period unless a
// FleetWorker sets its own.
const defaultHeartbeatEvery = 500 * time.Millisecond

// NewWorker registers with the master, pulls the session spec, and
// takes the transformation plan, compiled once per process per op list.
// The worker registers no data-plane endpoint; use NewWorkerWithEndpoint
// when clients resolve workers through the master.
func NewWorker(id string, master MasterAPI, wh *warehouse.Warehouse) (*Worker, error) {
	return NewWorkerWithEndpoint(id, "", master, wh)
}

// NewWorkerWithEndpoint registers with the master, announcing the
// data-plane address clients should fetch tensors from, pulls the
// session spec, and takes the execution plan of its ops from
// transforms.CompilePlan, which compiles once per process per op list: a
// worker of a later session over equal ops gets the plan an earlier one
// compiled. Ops that do not compile — a dependency cycle, an op
// configuration Apply would reject per batch, or an op without a
// compiled kernel — fail here.
func NewWorkerWithEndpoint(id, endpoint string, master MasterAPI, wh *warehouse.Warehouse) (*Worker, error) {
	spec, err := master.RegisterWorker(id, endpoint)
	if err != nil {
		return nil, fmt.Errorf("dpp: worker %s register: %w", id, err)
	}
	spec = spec.withDefaults()
	plan, err := transforms.CompilePlan(spec.Ops)
	if err != nil {
		return nil, fmt.Errorf("dpp: worker %s plan: %w", id, err)
	}
	return &Worker{
		ID:             id,
		Endpoint:       endpoint,
		master:         master,
		wh:             wh,
		spec:           spec,
		plan:           plan,
		arena:          dwrf.NewArena(),
		proj:           spec.Projection(),
		splits:         make(map[int]splitAcct),
		crashCh:        make(chan struct{}),
		lastStatsAt:    time.Now(),
		minWindow:      math.MaxInt,
		heartbeatEvery: defaultHeartbeatEvery,
	}, nil
}

// splitAcct is one split's delivery ledger: how many batches entered the
// buffer, how many a client has consumed, and whether production is
// still running. The split completes at the master when producing is
// over and every produced batch was consumed.
type splitAcct struct {
	produced  int
	consumed  int
	producing bool
}

// ProcessOneSplit runs the worker's step once on the calling goroutine
// — the step each of Run's evaluators runs in a loop. Offline
// measurement and tests drive it in a loop as the reference for Run. It
// returns false when the master has no split to hand out (session done,
// nothing pending, or this worker has been marked draining — see
// Draining); a split released back after a retryable storage failure
// still returns true, and the next call leases again.
func (w *Worker) ProcessOneSplit() (bool, error) {
	leased, err := w.step(nil)
	return leased && err == nil, err
}

// step leases one split, evaluates it (evalNext, fleet cache included)
// and delivers it (deliverSplit), blocking on the buffer's backpressure
// until cancel closes. leased=false means the master had nothing to
// hand out; leased=true with a nil error covers a split released back
// to the master, which delivers nothing.
func (w *Worker) step(cancel <-chan struct{}) (leased bool, err error) {
	ev, leased, err := w.evalNext()
	if err == nil && ev.frames != nil {
		err = w.deliverSplit(ev, cancel)
	}
	return leased, err
}

// deliverSplit is the load half of the step: fold the evaluation into
// the resource report and hand its frames in order to the sink or the
// bounded buffer, crediting the deliver stopwatch (time blocked on
// backpressure included) until cancel closes. The split is acknowledged
// to the master by the consumption ledger (finishSplit / ackConsumed)
// once clients have consumed every batch, not when the buffer accepts
// them — see splitAcct.
func (w *Worker) deliverSplit(ev evaluated, cancel <-chan struct{}) error {
	w.accountSplit(ev)
	start := time.Now()
	var err error
	for _, f := range ev.frames {
		if err = w.deliver(f, cancel); err != nil {
			break
		}
	}
	w.stageDeliver.Add(time.Since(start))
	w.finishSplit(ev.splitID, err == nil)
	ev.handedOn()
	return err
}

// finishSplit closes a split's production ledger. delivered=true means
// every batch reached the buffer (or the sink): the split completes at
// the master once everything produced is consumed — immediately for a
// sink-mode split, whose produced == consumed == 0. delivered=false
// means delivery was cut short (crash or stop): the ledger is dropped
// WITHOUT completing, so the lease stays in flight, the master
// eventually requeues it, and the re-run redelivers the missing tail
// while client-side (Split, Seq) dedup drops the overlap.
func (w *Worker) finishSplit(splitID int, delivered bool) {
	w.mu.Lock()
	a, ok := w.splits[splitID]
	complete := false
	switch {
	case !ok:
	case !delivered:
		delete(w.splits, splitID)
	case a.consumed >= a.produced:
		delete(w.splits, splitID)
		complete = true
	default:
		a.producing = false
		w.splits[splitID] = a
	}
	if complete {
		w.completing++
	}
	w.mu.Unlock()
	if complete {
		w.completeSplit(splitID)
	}
}

// ackConsumed records that a client irrevocably consumed a batch (a
// framed credit grant, or a gracefully rescued stream window) and
// completes any split whose batches have now all been consumed.
// Untagged frames and frames of unknown splits (double acks after a
// requeue race) are ignored.
func (w *Worker) ackConsumed(frames ...*frame) {
	if len(frames) == 0 {
		return
	}
	// A grant usually retires one frame and completes at most one split:
	// the list lives on the stack unless it outgrows it.
	var stack [4]int
	complete := stack[:0]
	w.mu.Lock()
	for _, f := range frames {
		if f == nil || f.split() == 0 {
			continue
		}
		splitID := int(f.split()) - 1
		a, ok := w.splits[splitID]
		if !ok {
			continue
		}
		a.consumed++
		if !a.producing && a.consumed >= a.produced {
			delete(w.splits, splitID)
			complete = append(complete, splitID)
		} else {
			w.splits[splitID] = a
		}
	}
	w.completing += len(complete)
	w.mu.Unlock()
	for _, splitID := range complete {
		w.completeSplit(splitID)
	}
}

// completeSplit acknowledges one fully consumed split to the master.
// Errors are dropped: a failed ack leaves the lease in flight, the
// master eventually requeues it, and client-side (Split, Seq)
// deduplication absorbs the re-run — correctness never depends on this
// call landing.
func (w *Worker) completeSplit(splitID int) {
	_ = w.master.CompleteSplit(w.ID, splitID)
	w.mu.Lock()
	w.completing--
	w.report.SplitsDone++
	w.settleLocked()
	w.mu.Unlock()
}

// settleLocked wakes Retire. Callers hold w.mu and have just lowered
// one of the counts it waits out.
func (w *Worker) settleLocked() { wake(&w.settled) }

// wake closes a taken wake-up channel and drops it, so the next waiter
// takes a fresh one; a channel nobody took is left unmade. Callers hold
// the lock that guards *ch.
func wake(ch *chan struct{}) {
	if *ch != nil {
		close(*ch)
		*ch = nil
	}
}

// UseCache attaches the node-wide content-addressed cache, attributing
// its activity to tenant (the session ID), and adopts the cache's column
// arena in place of the worker's own: every pipeline on the node then
// decodes into columns that any of them — finished sessions included —
// released or evicted. Call before Run or ProcessOneSplit; the
// FleetWorker does so for every pipeline it starts.
func (w *Worker) UseCache(c *ware.Cache, tenant string) {
	w.cache = c
	w.cacheTenant = tenant
	w.arena = c.Arena()
}

// accountSplit folds one evaluated split — read and transform — into
// the worker's cumulative resource report and opens the split's
// delivery ledger. The cache outcome is not re-counted here: the worker
// is one cache tenant, and ware.Cache.TenantStats already holds that
// tally.
func (w *Worker) accountSplit(ev evaluated) {
	read := ev.read
	var rowsOut, txBytes int64
	for _, f := range ev.frames {
		rowsOut += int64(f.rows)
		txBytes += f.size
	}
	xformCycles := int64(ev.xform.TotalCycles())
	w.mu.Lock()
	w.splits[ev.splitID] = splitAcct{producing: true}
	r := &w.report
	r.NICRxBytes += read.BytesRead
	r.NICTxBytes += txBytes
	r.StorageWantedBytes += read.BytesWanted
	r.DecodedBytes += read.BytesDecoded
	r.XformCycles += xformCycles
	r.XformMemBytes += int64(ev.xform.MemBytes)
	r.RowsIn += int64(ev.xform.RowsIn)
	r.RowsOut += rowsOut
	r.BatchesOut += int64(len(ev.frames))
	r.Recovery.Add(read.Recovery)
	w.mu.Unlock()
}

// errCanceled aborts delivery when the session is stopped mid-flight.
var errCanceled = errors.New("dpp: delivery canceled")

// deliver hands a frame to the sink (decoded) or buffers it, blocking
// while the buffer is at capacity (backpressure from slow trainers). The
// buffer admits a frame when it is below BufferDepth frames and its
// frame bytes stay within the pipeline's byte bound; an empty buffer
// always admits one frame so delivery cannot deadlock on an oversized
// batch.
func (w *Worker) deliver(f *frame, cancel <-chan struct{}) error {
	if w.Sink != nil {
		b, err := f.decode()
		f.free()
		if err != nil {
			return err
		}
		w.sinkMu.Lock()
		w.Sink(b)
		w.sinkMu.Unlock()
		return nil
	}
	size := int64(len(f.buf))
	maxBytes := w.spec.Pipeline.MaxBufferedBytes
	for {
		w.mu.Lock()
		fits := w.buffer.Len() < w.spec.BufferDepth &&
			(maxBytes <= 0 || w.bufBytes+size <= maxBytes)
		if fits || w.buffer.Len() == 0 {
			w.buffer.push(f)
			w.bufBytes += size
			if w.bufBytes > w.report.ResidentPeak {
				w.report.ResidentPeak = w.bufBytes
			}
			if split := f.split(); split != 0 {
				if a, ok := w.splits[int(split)-1]; ok {
					a.produced++
					w.splits[int(split)-1] = a
				}
			}
			wake(&w.notEmpty)
			w.mu.Unlock()
			return nil
		}
		// notFull is taken under the same lock hold that found the buffer
		// full, and tryGetFrame and finish close it under that lock, so a
		// pop between the check and the wait has already closed this
		// channel: the signal cannot be missed and needs no fallback poll.
		if w.notFull == nil {
			w.notFull = make(chan struct{})
		}
		wait := w.notFull
		w.mu.Unlock()
		select {
		case <-wait:
		case <-cancel:
			return errCanceled
		case <-w.crashCh:
			return errCanceled
		}
	}
}

// BatchReady implements frameSource: deliver, ungetFrames, finish and
// Crash close the channel it returns.
func (w *Worker) BatchReady() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.notEmpty == nil {
		w.notEmpty = make(chan struct{})
	}
	return w.notEmpty
}

// tryGetFrame pops a buffered frame without blocking. done=true means
// the worker has finished and drained. The pop is NOT a consumption
// acknowledgement: the framed stream, which can still lose the frame
// from its in-flight window, acks when the client grants credit. A
// crashed worker serves nothing and never reports done — it is simply
// unreachable, like a dead process.
func (w *Worker) tryGetFrame() (f *frame, ok, done bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.crashed {
		return nil, false, false
	}
	if w.buffer.Len() > 0 {
		f = w.buffer.pop()
		w.bufBytes -= int64(len(f.buf))
		if w.buffer.Len() < w.minBuffered {
			w.minBuffered = w.buffer.Len()
		}
		wake(&w.notFull)
		w.settleLocked()
		return f, true, false
	}
	return nil, false, w.finished
}

// ungetFrames returns frames to the FRONT of the buffer, preserving
// their order — the framed data plane's recovery path when a stream
// breaks abnormally with sent-but-unconsumed frames in flight (see
// dataplane.go): the same bytes go out again under the same tags. The
// buffer's capacity bounds are deliberately ignored: these frames were
// already admitted once, and dropping them would lose rows whose splits
// the master has acknowledged.
func (w *Worker) ungetFrames(frames []*frame) {
	if len(frames) == 0 {
		return
	}
	w.mu.Lock()
	w.buffer.pushFront(frames)
	for _, f := range frames {
		w.bufBytes += int64(len(f.buf))
	}
	if w.bufBytes > w.report.ResidentPeak {
		w.report.ResidentPeak = w.bufBytes
	}
	wake(&w.notEmpty)
	w.mu.Unlock()
}

// frameQueue is the worker's buffer: a ring of frames that grows, from
// eight slots, to the buffer's working size and is reused from then on,
// so a push or a pop moves no other frame.
type frameQueue struct {
	ring    []*frame // n frames from ring[head] on, wrapping, oldest first
	head, n int
}

// Len reports the number of queued frames.
func (q *frameQueue) Len() int { return q.n }

// push queues f last.
func (q *frameQueue) push(f *frame) {
	q.grow(1)
	q.ring[(q.head+q.n)%len(q.ring)] = f
	q.n++
}

// pop dequeues the oldest frame; the queue must not be empty.
func (q *frameQueue) pop() *frame {
	f := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) % len(q.ring)
	q.n--
	return f
}

// pushFront queues frames, in order, ahead of everything queued.
func (q *frameQueue) pushFront(frames []*frame) {
	q.grow(len(frames))
	for i := len(frames) - 1; i >= 0; i-- {
		q.head = (q.head + len(q.ring) - 1) % len(q.ring)
		q.ring[q.head] = frames[i]
		q.n++
	}
}

// grow makes room for k more frames.
func (q *frameQueue) grow(k int) {
	if q.n+k <= len(q.ring) {
		return
	}
	ring := make([]*frame, max(8, 2*(q.n+k)))
	for i := range q.n {
		ring[i] = q.ring[(q.head+i)%len(q.ring)]
	}
	q.ring, q.head = ring, 0
}

// addStreamOutstanding implements frameSource; Retire waits for the
// count to reach zero, and the scaler's window keeps its low point.
func (w *Worker) addStreamOutstanding(delta int) {
	if delta == 0 {
		return
	}
	w.mu.Lock()
	w.outstanding += delta
	if delta < 0 {
		w.minWindow = min(w.minWindow, w.outstanding)
		w.settleLocked()
	}
	w.mu.Unlock()
}

// Draining reports whether the master has marked this worker for
// removal: it receives no further splits and Run exits once in-flight
// work is delivered.
func (w *Worker) Draining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

func (w *Worker) setDraining() {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
}

// Crash is the fault-injection hook: it kills the worker as a process
// death would, with no drain and no deregistration. The data plane goes
// dark immediately (streams sever, the buffer stops serving), heartbeats
// stop, and nothing is acknowledged or handed off. The worker's leases
// stay in flight until the service declares its fleet worker dead
// (Service.ReapDead, on fleet-heartbeat silence) and deregisters it at
// the master, which requeues every split the crashed worker had not
// fully delivered; the session re-runs them elsewhere. Idempotent. The
// worker also crashes itself when the master disowns it (heartbeat's
// rule): a reaped worker's buffered work is unreachable by any client,
// so abandoning it is the only exit that cannot wedge.
func (w *Worker) Crash() {
	w.mu.Lock()
	if !w.crashed {
		w.crashed = true
		close(w.crashCh)
		wake(&w.notEmpty)
	}
	w.mu.Unlock()
}

// crashedCh implements frameSource: Crash closes it.
func (w *Worker) crashedCh() <-chan struct{} { return w.crashCh }

// Crashed reports whether the fault-injection hook fired.
func (w *Worker) Crashed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.crashed
}

// Report snapshots the worker's cumulative resource accounting.
func (w *Worker) Report() ResourceReport {
	w.mu.Lock()
	rep := w.report
	w.mu.Unlock()
	rep.FetchBusy = w.stageFetch.Busy()
	rep.DecodeBusy = w.stageDecode.Busy()
	rep.TransformBusy = w.stageTransform.Busy()
	rep.DeliverBusy = w.stageDeliver.Busy()
	return rep
}

// sampleStats reports the scaler's window and restarts it: the lowest
// level of the batches queued for the trainers since the previous
// sample, and the evaluators' busy fraction over it — fetch, decode and
// transform time (not delivery, which counts backpressure blocking)
// over wall time, normalized by the number of evaluator goroutines.
// Batches queue in two places, and a trainer starves when either runs
// dry: the buffer, when the evaluators fall behind, and the stream
// windows, when the streams do — on a loaded host the stream goroutines
// wait for a CPU the evaluators hold, and the trainer drains its window
// while a full buffer waits to be sent. A window counts only once a
// grant or a stream's end moves it down, so a worker no trainer reads
// from reports its buffer alone. The fleet heartbeat
// (FleetWorker.AggregateStats) is its one caller, so each fleet
// heartbeat reports what happened since the last.
func (w *Worker) sampleStats() WorkerStats {
	busy := w.stageFetch.Busy() + w.stageDecode.Busy() + w.stageTransform.Busy()
	parallel := float64(w.spec.Pipeline.Prefetchers + w.spec.Pipeline.TransformParallelism)
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	st := WorkerStats{MinBuffered: min(w.minBuffered, w.minWindow)}
	if wall := now.Sub(w.lastStatsAt); wall > 0 {
		st.BusyFrac = min(max(float64(busy-w.lastBusy)/(float64(wall)*parallel), 0), 1)
	}
	w.lastStatsAt, w.lastBusy = now, busy
	w.minBuffered, w.minWindow = w.buffer.Len(), math.MaxInt
	return st
}

// recoveryStats is the session heartbeat's report: the cumulative
// recovery counters Master.Recovery totals.
func (w *Worker) recoveryStats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkerStats{Recovery: w.report.Recovery, SplitsReleased: w.report.SplitsReleased}
}

// finish marks the worker drained-when-empty and wakes all waiters.
func (w *Worker) finish() {
	w.mu.Lock()
	w.finished = true
	wake(&w.notEmpty)
	wake(&w.notFull)
	w.mu.Unlock()
}

// heartbeatLoop is Run's session heartbeat, one per heartbeatEvery,
// until stop closes or the worker crashes.
func (w *Worker) heartbeatLoop(stop <-chan struct{}) {
	t := time.NewTicker(w.heartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-w.crashCh:
			return
		case <-t.C:
			w.heartbeat()
		}
	}
}

// maxRejections is how many consecutive ErrDisowned answers crash the
// worker.
const maxRejections = 3

// heartbeat sends the session master one heartbeat under the one rule
// both heartbeating loops (heartbeatLoop, Retire) share. The master
// answering maxRejections times running that it no longer holds this
// worker means it was disowned — reaped, or its session closed: its
// leases were requeued and it left the membership, so no client will
// ever be routed here to relieve backpressure or drain the buffer.
// Serving on could wedge forever; instead the worker abandons its work
// through the crash path — the requeued leases re-run elsewhere and
// client-side dedup keeps delivery exactly-once, exactly as after a
// real death. Transport failures (a master restart, a network blip)
// never count: membership and leases are intact at the master, so
// abandoning buffered work over a control-plane hiccup would turn it
// all into needless re-runs.
func (w *Worker) heartbeat() {
	err := w.master.Heartbeat(w.ID, w.recoveryStats())
	if err != nil && !isDisownedErr(err) {
		return
	}
	w.mu.Lock()
	if err == nil {
		w.rejections = 0
	} else {
		w.rejections++
	}
	disowned := w.rejections >= maxRejections
	w.mu.Unlock()
	if disowned {
		w.Crash()
	}
}

// isDisownedErr reports whether a control-plane error is the master
// actively rejecting this worker (ErrDisowned), as opposed to a
// transport failure. In process that is the error value; over net/rpc,
// which flattens a handler's error to its text, it is that text inside
// an rpc.ServerError — the one place the check is textual.
func isDisownedErr(err error) bool {
	if errors.Is(err, ErrDisowned) {
		return true
	}
	var remote rpc.ServerError
	return errors.As(err, &remote) && strings.Contains(string(remote), ErrDisowned.Error())
}

// Retire serves the worker's remaining buffered batches until consumers
// drain them, heartbeating its session master as Run does, then removes
// the worker from the master's membership. Closing abandon gives up on
// undelivered batches (forced shutdown; their splits are requeued by
// DeregisterWorker if still leased) but still deregisters. A worker the
// master disowns meanwhile crashes under heartbeat's rule and returns
// without deregistering: no client will be routed here to drain it.
// Call after Run returns; the pair is the worker half of the graceful
// drain protocol.
func (w *Worker) Retire(abandon <-chan struct{}) error {
	if w.Crashed() {
		// A crashed worker is a dead process: it neither serves its
		// buffer nor deregisters. The master reaps it and requeues its
		// leases.
		return nil
	}
	hb := time.NewTicker(w.heartbeatEvery)
	defer hb.Stop()
drain:
	for {
		// Undelivered (not merely Buffered): batches pushed into a framed
		// stream's un-granted window still belong to this worker — if the
		// stream broke abnormally after deregistration they would be
		// requeued into a worker no client can resolve, losing rows. The
		// open split ledgers and the completion acks in flight
		// additionally hold deregistration until every consumed split's
		// CompleteSplit has landed at the master, so DeregisterWorker does
		// not requeue a lease whose rows were already delivered in full.
		// The counts and the wake-up are read under one lock hold, so
		// whatever lowers them next closes this channel.
		w.mu.Lock()
		left := w.buffer.Len() + w.outstanding + len(w.splits) + w.completing
		if left > 0 && w.settled == nil {
			w.settled = make(chan struct{})
		}
		settled := w.settled
		w.mu.Unlock()
		if left == 0 {
			break
		}
		select {
		case <-abandon:
			break drain
		case <-w.crashCh:
			return nil
		case <-hb.C:
			w.heartbeat()
		case <-settled:
		}
	}
	// The master keeps a departed worker's last-reported counters in the
	// session total (Master.Recovery), so the last report is the final one.
	w.heartbeat()
	return w.master.DeregisterWorker(w.ID)
}
