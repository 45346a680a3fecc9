package dpp

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dsi/internal/dwrf"
	"dsi/internal/warehouse"
)

// WorkerStats is what workers report to the control plane: the fields
// it reads, each naming its reader below, and nothing else. The fleet
// heartbeat carries the scaler's window (MinBuffered, BusyFrac), a
// pipeline's session heartbeat its recovery counters. The paper's
// Master scales "to eliminate data stalls" from what workers report
// (§3.2.1); here the scaler keys on whether a buffer ran dry and
// whether the evaluators sat idle. What the worker measured beyond that
// is Worker.Report(), for whoever wants it.
type WorkerStats struct {
	// MinBuffered is the lowest buffered-batch level observed since the
	// previous fleet heartbeat, in the worker's buffer or in its
	// trainers' stream windows, whichever ran lower (Worker.sampleStats).
	// Read by AutoScaler.Evaluate: the instantaneous level is scheduling
	// noise on a loaded host (a burst-scheduled worker can report a full
	// buffer an instant after trainers drained it dry); the windowed
	// minimum answers the question the scaler actually asks — did this
	// worker's supply ever run dry? — and is what the scale-up and
	// scale-down rules key on.
	MinBuffered int
	// BusyFrac is the measured fraction of the last heartbeat window the
	// worker's evaluator goroutines spent busy (fetching, decoding, or
	// transforming). Read by AutoScaler.Evaluate: it drops toward zero
	// when the pipeline is blocked on backpressure from slow trainers,
	// making it the oversupply signal the drain decision keys on.
	BusyFrac float64

	// Storage self-healing counters (cumulative), and splits released
	// back for requeue under degraded mode. Read by Master.Recovery,
	// which totals them over the session's workers, departed ones
	// included.
	dwrf.Recovery
	SplitsReleased int64
}

// WorkerEndpoint is one registered worker's identity and data-plane
// address, as resolved by ListWorkers. Clients use it to build and
// rebalance their connection set as the pool grows and shrinks.
type WorkerEndpoint struct {
	ID       string
	Endpoint string
	Draining bool
}

// MasterAPI is the control-plane surface Workers and Clients depend on.
// The Master implements it directly; the TCP transport wraps it.
type MasterAPI interface {
	// RegisterWorker announces a worker together with its data-plane
	// endpoint (the address Clients fetch tensors from) and returns the
	// session spec (workers pull their transformations from the master
	// on startup).
	RegisterWorker(workerID, endpoint string) (SessionSpec, error)
	// DeregisterWorker removes a worker from the session's membership.
	// Workers call it after they have finished (or finished draining)
	// and their buffer has been fully consumed, so Clients never lose
	// buffered rows when the worker disappears from ListWorkers.
	DeregisterWorker(workerID string) error
	// NextSplit leases the next unprocessed split. ok=false means no
	// work is currently available (done, draining, or everything is in
	// flight); draining=true tells the worker it has been marked for
	// removal and should exit once its in-flight work is delivered.
	NextSplit(workerID string) (split warehouse.Split, splitID int, ok bool, draining bool, err error)
	// CompleteSplit acknowledges a finished split.
	CompleteSplit(workerID string, splitID int) error
	// ReleaseSplit returns a leased split to the pending queue after a
	// retryable storage failure, so another worker (or this one, once
	// the fault clears) picks it up — degraded throughput instead of a
	// dead session. Each release increments the split's poison counter;
	// when it exhausts the retry budget, requeued=false is returned and
	// the session is failed (Done reports the error to every worker).
	ReleaseSplit(workerID string, splitID int, reason string) (requeued bool, err error)
	// Heartbeat reports the worker's recovery counters (Master.Recovery
	// keeps them) and tells it whether the session still holds it: a
	// worker the master rejects with ErrDisowned three times running
	// crashes itself. Liveness is not decided here — the Service reaps
	// fleet members whose fleet heartbeat went silent.
	Heartbeat(workerID string, stats WorkerStats) error
	// ListWorkers resolves the session's current worker membership.
	ListWorkers() ([]WorkerEndpoint, error)
	// Done reports whether every split has completed.
	Done() (bool, error)
	// WorkChanged returns the wake-ups an idle worker waits on instead of
	// re-asking on a timer. session is closed the next time an answer a
	// worker was given may have changed without the worker's own doing:
	// the last discovered split completed, a lease went back to the queue
	// (ReleaseSplit, DeregisterWorker, Service.ReapDead), a split was
	// poisoned, a worker was marked draining, or the session closed. table is closed
	// when the tailed table publishes a partition or its stream ends (nil
	// for bounded sessions: a nil channel never fires). Take both before
	// NextSplit and Done, wait only after those answered "nothing", then
	// take fresh ones.
	WorkChanged() (session, table <-chan struct{})
}

// Master is the DPP control plane for one training session.
type Master struct {
	spec   SessionSpec
	splits []warehouse.Split

	// table is set for unbounded sessions: the master reads it for newly
	// sealed partitions and for the producer's stream-close whenever a
	// worker asks (no background goroutine), and hands idle workers its
	// Changed channel to wait on in between (WorkChanged).
	table warehouse.TableReader

	mu        sync.Mutex
	closed    bool
	pending   []int
	inflight  map[int]lease
	completed []bool
	nComplete int
	workers   map[string]*workerInfo
	// departed and departedReleased total the recovery accounting last
	// reported by workers no longer in the membership — deregistered
	// (the service's reap included) or replaced by a registration under
	// the same ID — so the session's Recovery outlives the workers that
	// did the work.
	departed         dwrf.Recovery
	departedReleased int64
	// seenParts / discovered / lastGen drive incremental split
	// discovery on unbounded sessions; freshness accumulates per-split
	// event-time→completion lag samples.
	seenParts  map[string]bool
	discovered []string
	lastGen    int64
	freshness  []FreshnessSample
	// poison counts ReleaseSplit returns per split; failErr latches the
	// session failure once a split exhausts its retry budget.
	poison  map[int]int
	failErr error
	// changed is WorkChanged's session channel: closed by notifyLocked
	// and allocated only while someone waits. wakes counts the closes;
	// with the table generation it is the token a remote long-poll
	// carries (workToken).
	changed chan struct{}
	wakes   int64

	// now is injectable for deterministic tests.
	now func() time.Time
}

// DefaultSplitRetries is the default per-split release budget. Sized so
// a split placed entirely on braindead nodes fails fast, while a
// transient brownout (one or two release/requeue round trips until the
// window passes or another worker wins the lease) rides through.
const DefaultSplitRetries = 8

type lease struct {
	worker  string
	granted time.Time
}

// workerInfo is one member of the session: its data-plane endpoint,
// whether it is draining, and the recovery counters of its last
// heartbeat (what Recovery reads).
type workerInfo struct {
	endpoint       string
	draining       bool
	recovery       dwrf.Recovery
	splitsReleased int64
}

// NewMaster plans the session: it enumerates splits over the requested
// partitions and prepares the lease table.
func NewMaster(wh *warehouse.Warehouse, spec SessionSpec) (*Master, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	tbl, err := wh.Table(spec.Table)
	if err != nil {
		return nil, err
	}
	if spec.Unbounded && !tbl.Unbounded() {
		return nil, fmt.Errorf("dpp: unbounded session over static table %s (create it with CreateUnboundedTable)", spec.Table)
	}
	m := &Master{
		spec:      spec,
		inflight:  make(map[int]lease),
		workers:   make(map[string]*workerInfo),
		poison:    make(map[int]int),
		seenParts: make(map[string]bool),
		lastGen:   -1,
		now:       time.Now,
	}
	if spec.Unbounded {
		// Split discovery is incremental: whatever is visible now seeds
		// the queue, and refreshLocked picks up partitions as the ETL
		// seals them. The pipeline cannot be sized to a final split
		// count, so planning keeps the configured parallelism.
		m.table = tbl
		m.spec.Pipeline = m.spec.Pipeline.withDefaults()
		if err := m.refreshLocked(); err != nil {
			return nil, err
		}
		return m, nil
	}
	splits, err := tbl.Splits(spec.Partitions)
	if err != nil {
		return nil, err
	}
	if len(splits) == 0 {
		return nil, fmt.Errorf("dpp: session over %s selects no splits", spec.Table)
	}
	// Session planning sizes each worker's pipeline to the actual work:
	// the planned knobs reach workers through RegisterWorker.
	m.spec.Pipeline = m.spec.Pipeline.planFor(len(splits))
	m.splits = splits
	m.completed = make([]bool, len(splits))
	m.pending = make([]int, len(splits))
	for i := range m.pending {
		m.pending[i] = i
	}
	return m, nil
}

// refreshLocked discovers splits of partitions sealed since the last
// call. It reads the table generation BEFORE enumerating partitions, so
// a partition sealed mid-enumeration is re-examined (and deduplicated by
// key) on the next call rather than lost. Callers hold m.mu.
func (m *Master) refreshLocked() error {
	if m.table == nil {
		return nil
	}
	gen := m.table.Generation()
	if gen == m.lastGen {
		return nil
	}
	for _, p := range m.table.Partitions() { // sorted by key
		if m.seenParts[p.Key] {
			continue
		}
		splits, err := m.table.PartitionSplits(p.Key)
		if err != nil {
			return err
		}
		m.seenParts[p.Key] = true
		m.discovered = append(m.discovered, p.Key)
		for _, sp := range splits {
			m.splits = append(m.splits, sp)
			m.completed = append(m.completed, false)
			m.pending = append(m.pending, len(m.splits)-1)
		}
	}
	m.lastGen = gen
	return nil
}

// SplitCount reports the total number of splits discovered so far (the
// final count, for bounded sessions).
func (m *Master) SplitCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.refreshLocked()
	return len(m.splits)
}

// DiscoveredPartitions lists the partition keys an unbounded session has
// discovered, in discovery order (nil for bounded sessions). E2E tests
// use it to assert that partitions sealed after session start were
// picked up live.
func (m *Master) DiscoveredPartitions() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	_ = m.refreshLocked()
	return append([]string(nil), m.discovered...)
}

// Close marks the session's control plane closed: every subsequent
// worker-facing call fails with a closed-session error. Pipelines that
// kept direct in-process pointers to a Master after its Service
// registry entry was removed (CloseSession) therefore learn about the
// closure exactly like RPC workers of an unknown session do — their
// idle evaluators wake, ask, and abort on the rejection, and their
// heartbeat loops treat it as disownment and abandon the
// now-unconsumable buffered work.
func (m *Master) Close() {
	m.mu.Lock()
	m.closed = true
	m.notifyLocked()
	m.mu.Unlock()
}

// WorkChanged implements MasterAPI.
func (m *Master) WorkChanged() (session, table <-chan struct{}) {
	if m.table != nil {
		table = m.table.Changed()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.changed == nil {
		m.changed = make(chan struct{})
	}
	return m.changed, table
}

// notifyLocked closes WorkChanged's session channel. Callers hold m.mu
// and have just changed the state the channel announces, so a worker
// that took the channel before asking cannot miss the change.
func (m *Master) notifyLocked() {
	m.wakes++
	wake(&m.changed)
}

// workToken names the state WorkChanged's channels announce: it moves
// exactly when one of them closes. A remote long-poll carries the token
// it last saw, so a change that lands between two polls answers the next
// one at once (awaitWork, rpc.go).
func (m *Master) workToken() int64 {
	var gen int64
	if m.table != nil {
		gen = m.table.Generation()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.wakes + gen
}

// ErrDisowned is the control plane actively rejecting a worker: it was
// reaped or deregistered, or its whole session closed or was never
// known. Every such rejection wraps it, and isDisownedErr tells it from
// a transport failure.
var ErrDisowned = errors.New("dpp: worker disowned")

// errClosed is the worker-facing rejection of a closed session.
var errClosed = fmt.Errorf("%w: session closed", ErrDisowned)

// errUnregistered is the rejection of a worker the session's membership
// does not hold.
func errUnregistered(workerID string) error {
	return fmt.Errorf("%w: unregistered worker %q", ErrDisowned, workerID)
}

// RegisterWorker implements MasterAPI.
func (m *Master) RegisterWorker(workerID, endpoint string) (SessionSpec, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return SessionSpec{}, errClosed
	}
	m.forgetLocked(workerID) // a replacement under the same ID reports from zero
	m.workers[workerID] = &workerInfo{endpoint: endpoint}
	return m.spec, nil
}

// forgetLocked drops a worker from the membership, keeping the recovery
// accounting of its last heartbeat in the session total.
func (m *Master) forgetLocked(workerID string) {
	if w, ok := m.workers[workerID]; ok {
		m.departed.Add(w.recovery)
		m.departedReleased += w.splitsReleased
		delete(m.workers, workerID)
	}
}

// DeregisterWorker implements MasterAPI. Any splits still leased to the
// worker are requeued, so a worker that deregisters with work in flight
// (e.g. forced shutdown) loses no data.
func (m *Master) DeregisterWorker(workerID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.workers[workerID]; !ok {
		return errUnregistered(workerID)
	}
	m.forgetLocked(workerID)
	m.requeueLocked(func(l lease) bool { return l.worker == workerID })
	return nil
}

// requeueLocked returns every lease that matches to the pending queue,
// wakes idle workers if any did, and reports how many. Callers hold
// m.mu.
func (m *Master) requeueLocked(match func(lease) bool) int {
	n := 0
	for splitID, l := range m.inflight {
		if match(l) {
			delete(m.inflight, splitID)
			m.pending = append(m.pending, splitID)
			n++
		}
	}
	if n > 0 {
		m.notifyLocked()
	}
	return n
}

// NextSplit implements MasterAPI.
func (m *Master) NextSplit(workerID string) (warehouse.Split, int, bool, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return warehouse.Split{}, 0, false, false, errClosed
	}
	w, ok := m.workers[workerID]
	if !ok {
		return warehouse.Split{}, 0, false, false, errUnregistered(workerID)
	}
	if len(m.pending) == 0 {
		// Unbounded sessions read the table for freshly sealed
		// partitions exactly when a worker runs out of work; a worker
		// told "nothing" waits on the table's Changed channel
		// (WorkChanged) and asks again when a partition is published.
		if err := m.refreshLocked(); err != nil {
			return warehouse.Split{}, 0, false, false, err
		}
	}
	if w.draining || len(m.pending) == 0 {
		return warehouse.Split{}, 0, false, w.draining, nil
	}
	id := m.pending[0]
	m.pending = m.pending[1:]
	m.inflight[id] = lease{worker: workerID, granted: m.now()}
	return m.splits[id], id, true, false, nil
}

// CompleteSplit implements MasterAPI.
func (m *Master) CompleteSplit(workerID string, splitID int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if splitID < 0 || splitID >= len(m.splits) {
		return fmt.Errorf("dpp: split id %d out of range", splitID)
	}
	l, ok := m.inflight[splitID]
	if !ok {
		// Already completed or reassigned; treat the duplicate ack as
		// benign (workers may be restarted mid-split).
		return nil
	}
	if l.worker != workerID {
		return fmt.Errorf("dpp: split %d leased to %s, completed by %s", splitID, l.worker, workerID)
	}
	delete(m.inflight, splitID)
	if !m.completed[splitID] {
		m.completed[splitID] = true
		m.nComplete++
		// CompleteSplit is consumption-acked — the trainer has the rows —
		// so completion time is the trainer-side end of the freshness
		// window opened when the events were logged.
		if sp := m.splits[splitID]; sp.MaxEventTime > 0 {
			m.freshness = append(m.freshness, FreshnessSample{
				Partition:    sp.Partition,
				Stripe:       sp.Stripe,
				MinEventTime: sp.MinEventTime,
				MaxEventTime: sp.MaxEventTime,
				CompletedAt:  m.now().UnixNano(),
			})
		}
		if m.nComplete == len(m.splits) {
			m.notifyLocked() // Done may have turned true
		}
	}
	return nil
}

// Heartbeat implements MasterAPI: it keeps the worker's recovery
// counters, the only fields of the report the session reads.
func (m *Master) Heartbeat(workerID string, stats WorkerStats) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return errClosed
	}
	w, ok := m.workers[workerID]
	if !ok {
		return errUnregistered(workerID)
	}
	w.recovery, w.splitsReleased = stats.Recovery, stats.SplitsReleased
	return nil
}

// ReleaseSplit implements MasterAPI: the degraded-mode requeue. A
// release from a worker that no longer holds the lease (it was reaped
// or aged out meanwhile) is benign, like a duplicate CompleteSplit ack.
// The split requeues at the back of the pending queue so healthy work
// goes first and a different worker most likely picks it up.
func (m *Master) ReleaseSplit(workerID string, splitID int, reason string) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, errClosed
	}
	if splitID < 0 || splitID >= len(m.splits) {
		return false, fmt.Errorf("dpp: release of unknown split %d", splitID)
	}
	if m.completed[splitID] {
		return true, nil
	}
	l, ok := m.inflight[splitID]
	if !ok || l.worker != workerID {
		return true, nil
	}
	delete(m.inflight, splitID)
	budget := m.spec.RetryBudget
	if budget == 0 {
		budget = DefaultSplitRetries
	}
	m.poison[splitID]++
	if m.poison[splitID] >= budget {
		m.failErr = fmt.Errorf("dpp: split %d poisoned after %d releases (last: %s)", splitID, m.poison[splitID], reason)
		m.notifyLocked() // Done now fails for every worker
		return false, nil
	}
	m.pending = append(m.pending, splitID)
	m.notifyLocked()
	return true, nil
}

// Done implements MasterAPI. Once a split has exhausted its poison
// budget the session can never finish; Done surfaces that as an error
// so every worker's fetch loop fails the session instead of spinning.
//
// An unbounded session is done only after the producer closed the
// table's stream AND every discovered split has completed. The
// stream-close check happens after a refresh, and closing itself bumps
// the table generation, so a second refresh after observing the close
// is guaranteed to see every partition sealed before it — no split can
// slip between "looks done" and "stream closed".
func (m *Master) Done() (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failErr != nil {
		return false, m.failErr
	}
	if m.table != nil {
		if err := m.refreshLocked(); err != nil {
			return false, err
		}
		if m.table.StreamOpen() {
			return false, nil
		}
		if err := m.refreshLocked(); err != nil {
			return false, err
		}
	}
	return m.nComplete == len(m.splits), nil
}

// ListWorkers implements MasterAPI. Draining workers stay listed until
// they deregister: their buffers may still hold undelivered tensors.
// The result is sorted by worker ID so every client resolves the same
// membership order and partitioned connection caps stay disjoint.
func (m *Master) ListWorkers() ([]WorkerEndpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WorkerEndpoint, 0, len(m.workers))
	for id, w := range m.workers {
		out = append(out, WorkerEndpoint{ID: id, Endpoint: w.endpoint, Draining: w.draining})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Progress reports completed and total split counts.
func (m *Master) Progress() (completed, total int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nComplete, len(m.splits)
}

// maxLeaseAge caps how long a split may stay leased to a worker the
// service still holds alive — ten of its default 30 s fleet lease
// timeouts — so a live-but-wedged worker (e.g. a fetch hung on a bad
// storage node) cannot hold a split forever. The requeued split may be
// processed twice if the wedged worker eventually recovers, which split
// idempotence makes safe.
const maxLeaseAge = 10 * 30 * time.Second

// requeueWedged requeues every lease granted more than maxLeaseAge ago
// and reports how many. Service.ReapDead calls it on every session
// after it has deregistered the dead; workers are stateless, so
// reassignment needs no checkpoint restore (§3.2.1).
func (m *Master) requeueWedged() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	return m.requeueLocked(func(l lease) bool { return now.Sub(l.granted) > maxLeaseAge })
}

// Drain marks a worker as draining: it receives no further splits but may
// finish its current one (used by the auto-scaler to shrink the pool).
func (m *Master) Drain(workerID string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.workers[workerID]
	if !ok {
		return errUnregistered(workerID)
	}
	w.draining = true
	m.notifyLocked() // its idle evaluators learn it from NextSplit
	return nil
}

// WorkerCount reports registered (non-drained) workers.
func (m *Master) WorkerCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, w := range m.workers {
		if !w.draining {
			n++
		}
	}
	return n
}

// Recovery reports the session's cumulative storage self-healing work
// and the splits released back for requeue, as heartbeats reported them:
// every registered worker's latest counters plus the last-reported
// counters of every worker that has since left the membership.
func (m *Master) Recovery() (rec dwrf.Recovery, splitsReleased int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, splitsReleased = m.departed, m.departedReleased
	for _, w := range m.workers {
		rec.Add(w.recovery)
		splitsReleased += w.splitsReleased
	}
	return rec, splitsReleased
}

// checkpointState is the serialized reader state.
type checkpointState struct {
	Completed []bool
}

// Checkpoint serializes the session's reader state (which splits have
// completed). In-flight leases are intentionally not persisted: on
// restore they simply re-run, which is safe because split processing is
// idempotent.
func (m *Master) Checkpoint() ([]byte, error) {
	m.mu.Lock()
	state := checkpointState{Completed: append([]bool(nil), m.completed...)}
	m.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&state); err != nil {
		return nil, fmt.Errorf("dpp: checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreMaster builds a replacement Master (the replica taking over,
// §3.2.1; Service.RestoreSession hosts it) from a checkpoint. Splits
// are re-enumerated from the warehouse and completed ones skipped.
func RestoreMaster(wh *warehouse.Warehouse, spec SessionSpec, checkpoint []byte) (*Master, error) {
	m, err := NewMaster(wh, spec)
	if err != nil {
		return nil, err
	}
	var state checkpointState
	if err := gob.NewDecoder(bytes.NewReader(checkpoint)).Decode(&state); err != nil {
		return nil, fmt.Errorf("dpp: restore: %w", err)
	}
	if m.table != nil {
		// Unbounded sessions may have sealed more partitions since the
		// checkpoint. Partitions seal in monotonic key order and
		// discovery enumerates in sorted key order, so split indices are
		// stable across restarts and the checkpoint restores as a prefix;
		// splits discovered after it stay pending.
		if len(state.Completed) > len(m.splits) {
			return nil, fmt.Errorf("dpp: checkpoint covers %d splits, session has %d", len(state.Completed), len(m.splits))
		}
	} else if len(state.Completed) != len(m.splits) {
		return nil, fmt.Errorf("dpp: checkpoint covers %d splits, session has %d", len(state.Completed), len(m.splits))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pending = m.pending[:0]
	for i := range m.splits {
		done := i < len(state.Completed) && state.Completed[i]
		m.completed[i] = done
		if done {
			m.nComplete++
		} else {
			m.pending = append(m.pending, i)
		}
	}
	return m, nil
}

// AutoScaler is the Master's scaling controller: it evaluates worker
// utilization and buffer occupancy and decides how many workers to launch
// or drain, "maintaining a non-zero number of buffered tensors and
// maximum CPU, network, and memory utilization" (§3.2.1).
type AutoScaler struct {
	// MinWorkers and MaxWorkers bound the pool.
	MinWorkers, MaxWorkers int
	// LowBuffer is the buffered-batch level (windowed minimum,
	// WorkerStats.MinBuffered) below which trainers are at risk of
	// stalling (scale up).
	LowBuffer int
	// HighBuffer is the level the windowed-minimum buffer must stay
	// above for a worker to count as oversupplied (scale down if also
	// under-utilized).
	HighBuffer int
}

const (
	// scalerIdleUtil is the live busy fraction (WorkerStats.BusyFrac)
	// below which an oversupplied worker is a drain candidate.
	scalerIdleUtil = 0.45
	// scalerStepUp caps how many workers are added per evaluation.
	scalerStepUp = 4
)

// NewAutoScaler returns a controller with the given pool bounds.
func NewAutoScaler(minWorkers, maxWorkers int) *AutoScaler {
	return &AutoScaler{
		MinWorkers: minWorkers,
		MaxWorkers: maxWorkers,
		LowBuffer:  1,
		HighBuffer: 6,
	}
}

// Evaluate returns the worker-count delta (positive: launch, negative:
// drain) for the current stats.
func (a *AutoScaler) Evaluate(stats []WorkerStats) int {
	n := len(stats)
	if n == 0 {
		if a.MinWorkers > 0 {
			return a.MinWorkers
		}
		return 1
	}
	starving := 0
	idle := 0
	for _, s := range stats {
		if s.MinBuffered <= a.LowBuffer {
			starving++
		}
		if s.MinBuffered >= a.HighBuffer && s.BusyFrac < scalerIdleUtil {
			idle++
		}
	}
	switch {
	case starving*2 > n: // majority near-empty buffers: data stall risk
		add := min(starving, scalerStepUp)
		if n+add > a.MaxWorkers {
			add = a.MaxWorkers - n
		}
		if add < 0 {
			add = 0
		}
		return add
	case idle > 0 && n > a.MinWorkers:
		drop := idle
		if n-drop < a.MinWorkers {
			drop = n - a.MinWorkers
		}
		return -drop
	default:
		return 0
	}
}
