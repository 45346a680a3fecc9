package dpp

import (
	"fmt"
	"sync"
	"time"
)

// This file closes the auto-scaling loop the paper attributes to the DPP
// Master (§3.2.1: the Master "auto-scales the worker pool to eliminate
// data stalls"). The AutoScaler stays a pure policy function; the
// Orchestrator is the mechanism that runs it periodically over a
// Service's shared fleet — requeue leases of dead workers, reap fleet
// members that finished draining, re-divide the fleet among sessions by
// weighted fair share, checkpoint reader state, then evaluate the
// tenant-aggregated fleet stats and launch or drain fleet members
// through a WorkerLauncher — with a hold after every drain so the
// controller does not flap. A single training job is a Service with one
// session. The loop reads no time: it counts Steps, and Run ticks one
// Step per ScaleInterval, so tests drive the exact same control law
// deterministically by calling Step.

// WorkerHandle is one launched fleet worker as the Orchestrator tracks
// it.
type WorkerHandle interface {
	// ID is the worker ID registered with the service.
	ID() string
	// Stop asks the worker to shut down without waiting for its buffers
	// to be consumed (forced shutdown; idempotent). Undelivered leases
	// are requeued at deregistration, so no rows are lost to their
	// sessions — they are re-processed elsewhere.
	Stop()
	// Done is closed once the worker has fully retired: its Run loop
	// exited, its pipelines served out their buffers (or abandoned them
	// after Stop), and it deregistered from the service.
	Done() <-chan struct{}
}

// WorkerLauncher creates fleet workers on behalf of the Orchestrator
// (FleetLauncher). A launched worker registers with the service, runs a
// pipeline per assigned session, and retires itself (pipelines finish,
// then deregister) when the service drains it or its handle is stopped.
type WorkerLauncher interface {
	Launch(id string) (WorkerHandle, error)
}

// procHandle is FleetLauncher's goroutine-backed handle.
type procHandle struct {
	id       string
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func (h *procHandle) ID() string { return h.id }

func (h *procHandle) Stop() { h.stopOnce.Do(func() { close(h.stop) }) }

func (h *procHandle) Done() <-chan struct{} { return h.done }

// managedWorker is the Orchestrator's view of one launched worker.
type managedWorker struct {
	handle   WorkerHandle
	seq      int
	draining bool
}

// OrchestratorStatus is a snapshot of the control loop's state.
type OrchestratorStatus struct {
	// Live is the number of tracked workers not yet fully retired.
	Live int
	// Draining is how many tracked workers are draining right now.
	Draining int
	// Launched and Drained count lifetime scale-up and scale-down
	// actions; Peak is the largest concurrently-live pool observed.
	Launched, Drained, Peak int
	// Checkpoints counts reader-state checkpoints taken.
	Checkpoints int
}

// FleetIDPrefix names the workers an Orchestrator launches
// "<prefix>-<seq>".
const FleetIDPrefix = "dpp-fw"

// drainHold is how many Steps a drain blocks scaling for, counting the
// drain's own: the two Steps after a drain neither launch nor drain —
// the anti-flap hysteresis on top of the AutoScaler's buffer thresholds.
// A launch holds nothing, so a drain may follow it on the next Step.
const drainHold = 3

// Orchestrator runs the closed scaling loop of a Service over a fleet
// it owns through a WorkerLauncher.
type Orchestrator struct {
	// ScaleInterval is the control period of Run (default 250ms): Run
	// takes one Step per ScaleInterval.
	ScaleInterval time.Duration
	// CheckpointEvery is the period between reader-state checkpoints (0
	// disables), counted in Steps of ScaleInterval: a checkpoint is due
	// once the Steps since the last one span CheckpointEvery. The latest
	// checkpoint is retained for a replica takeover
	// (DecodeServiceCheckpoint + Service.RestoreSession).
	CheckpointEvery time.Duration
	// OnError, when set, receives non-fatal control-loop errors (a
	// failed worker launch, a failed checkpoint). The loop retries on
	// its next tick rather than tearing down the session: a transient
	// launch hiccup must not abandon workers' buffered batches, whose
	// splits are already acknowledged.
	OnError func(err error)

	svc      *Service
	launcher WorkerLauncher
	scaler   *AutoScaler

	mu          sync.Mutex
	handles     map[string]*managedWorker
	seq         int
	step        int // Steps taken
	lastDrain   int // the Step of the latest drain (valid once drained > 0)
	lastCkpt    int // the Step of the latest checkpoint (valid once checkpoints > 0)
	checkpoint  []byte
	launched    int
	drained     int
	peak        int
	checkpoints int
}

// NewOrchestrator assembles the control loop of a Service: the pool is
// sized from tenant-aggregated signals, scale-down drains whole fleet
// members, and every Step re-runs the weighted fair-share rebalance
// that divides the fleet among live sessions. The launcher must launch
// fleet workers (FleetLauncher). The interval default suits the
// cmd/dppd deployment; tests shrink it.
func NewOrchestrator(svc *Service, launcher WorkerLauncher, scaler *AutoScaler) *Orchestrator {
	return &Orchestrator{
		ScaleInterval: 250 * time.Millisecond,
		svc:           svc,
		launcher:      launcher,
		scaler:        scaler,
		handles:       make(map[string]*managedWorker),
	}
}

// Status snapshots the loop's state.
func (o *Orchestrator) Status() OrchestratorStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := OrchestratorStatus{
		Launched:    o.launched,
		Drained:     o.drained,
		Peak:        o.peak,
		Checkpoints: o.checkpoints,
	}
	for _, mw := range o.handles {
		s.Live++
		if mw.draining {
			s.Draining++
		}
	}
	return s
}

// LastCheckpoint returns the most recent reader-state checkpoint taken
// by the loop (nil before the first).
func (o *Orchestrator) LastCheckpoint() []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.checkpoint
}

// Step runs one control iteration: requeue dead workers' leases, drop
// fleet members that finished retiring, re-divide the live fleet among
// sessions by weighted fair share, take a due checkpoint, then evaluate
// the scaling policy and launch or drain unless a drain holds it. Transient
// control failures (launch, checkpoint) go to OnError and are retried
// next Step; the returned error is reserved for a failed session (a
// split out of its poison budget). A service outlives its sessions, so
// Step keeps evaluating when every session is done: idle members drain
// back to the minimum rather than sit at the last peak. Step is the
// deterministic unit Run ticks and tests call directly.
func (o *Orchestrator) Step() error {
	o.mu.Lock()
	o.step++
	o.mu.Unlock()
	o.svc.ReapDead()
	o.reapRetired()
	o.svc.Rebalance()
	o.maybeCheckpoint()
	if _, err := o.svc.Done(); err != nil {
		return err
	}
	delta := o.scaler.Evaluate(o.svc.PolicyStats())
	switch {
	case delta > 0:
		o.scaleUp(delta)
	case delta < 0:
		o.scaleDown(-delta)
	}
	return nil
}

// notify reports a non-fatal control error.
func (o *Orchestrator) notify(err error) {
	if o.OnError != nil {
		o.OnError(err)
	}
}

// reapRetired forgets workers that deregistered after draining.
func (o *Orchestrator) reapRetired() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for id, mw := range o.handles {
		select {
		case <-mw.handle.Done():
			mw.handle.Stop() // idempotent; releases any forced-stop waiters
			delete(o.handles, id)
		default:
		}
	}
}

// maybeCheckpoint serializes reader state when the checkpoint period has
// elapsed. Failures are reported to OnError and retried next Step — the
// previous checkpoint stays valid.
func (o *Orchestrator) maybeCheckpoint() {
	o.mu.Lock()
	due := o.CheckpointEvery > 0 &&
		(o.checkpoints == 0 || time.Duration(o.step-o.lastCkpt)*o.ScaleInterval >= o.CheckpointEvery)
	o.mu.Unlock()
	if !due {
		return
	}
	ckpt, err := o.svc.Checkpoint()
	if err != nil {
		o.notify(fmt.Errorf("dpp: checkpoint: %w", err))
		return
	}
	o.mu.Lock()
	o.checkpoint = ckpt
	o.lastCkpt = o.step
	o.checkpoints++
	o.mu.Unlock()
}

// held reports whether a recent drain still blocks scaling (drainHold).
// Callers hold o.mu.
func (o *Orchestrator) held() bool {
	return o.drained > 0 && o.step-o.lastDrain < drainHold
}

// scaleUp launches up to delta workers, clamped so tracked live workers
// never exceed the policy's MaxWorkers (a loop whose MaxWorkers is zero
// launches nothing and only steers the workers that join on their
// own). Launch failures go to OnError and the next Step retries.
func (o *Orchestrator) scaleUp(delta int) {
	o.mu.Lock()
	if o.held() {
		o.mu.Unlock()
		return
	}
	// The bound caps concurrently running workers: draining workers
	// still occupy their nodes until they retire, so they count against
	// MaxWorkers and a replacement launch waits for the retirement.
	live := len(o.handles)
	if max := o.scaler.MaxWorkers; live+delta > max {
		delta = max - live
	}
	if delta <= 0 {
		o.mu.Unlock()
		return
	}
	type slot struct {
		id  string
		seq int
	}
	slots := make([]slot, 0, delta)
	for i := 0; i < delta; i++ {
		slots = append(slots, slot{id: fmt.Sprintf("%s-%d", FleetIDPrefix, o.seq), seq: o.seq})
		o.seq++
	}
	o.mu.Unlock()

	for _, s := range slots {
		h, err := o.launcher.Launch(s.id)
		if err != nil {
			o.notify(fmt.Errorf("dpp: launch %s: %w", s.id, err))
			continue
		}
		o.mu.Lock()
		o.handles[s.id] = &managedWorker{handle: h, seq: s.seq}
		o.launched++
		if n := len(o.handles); n > o.peak {
			o.peak = n
		}
		o.mu.Unlock()
	}
}

// scaleDown marks the delta most recently launched live workers as
// draining (LIFO keeps the longest-running, warmest workers serving).
func (o *Orchestrator) scaleDown(delta int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.held() {
		return
	}
	for i := 0; i < delta; i++ {
		var victim *managedWorker
		for _, mw := range o.handles {
			if mw.draining {
				continue
			}
			if victim == nil || mw.seq > victim.seq {
				victim = mw
			}
		}
		if victim == nil {
			return
		}
		// An unknown-worker error means the victim retired concurrently;
		// reapRetired collects it next Step either way.
		_ = o.svc.DrainFleetWorker(victim.handle.ID())
		victim.draining = true
		o.drained++
		o.lastDrain = o.step
	}
}

// StopAll force-stops every tracked worker and waits for them to retire.
// Buffered batches not yet consumed are abandoned; their splits were
// already acknowledged, so StopAll is for shutdown, not failover.
func (o *Orchestrator) StopAll() {
	o.mu.Lock()
	handles := make([]WorkerHandle, 0, len(o.handles))
	for _, mw := range o.handles {
		handles = append(handles, mw.handle)
	}
	o.mu.Unlock()
	for _, h := range handles {
		h.Stop()
	}
	for _, h := range handles {
		<-h.Done()
	}
	o.reapRetired()
}

// Run takes one Step every ScaleInterval of wall time until a session
// fails or stop is closed (either force-stops the pool). Transient control
// errors go to OnError and are retried. The first Step runs
// immediately, bootstrapping the pool to the policy's minimum.
func (o *Orchestrator) Run(stop <-chan struct{}) error {
	ticker := time.NewTicker(o.ScaleInterval)
	defer ticker.Stop()
	for {
		if err := o.Step(); err != nil {
			o.StopAll()
			return err
		}
		select {
		case <-stop:
			o.StopAll()
			return nil
		case <-ticker.C:
		}
	}
}
