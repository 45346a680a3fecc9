package dpp

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// ---------------------------------------------------------------------
// AutoScaler.Evaluate edge cases.
// ---------------------------------------------------------------------

func TestAutoScalerEmptyPoolMinZero(t *testing.T) {
	// Even a zero-minimum policy bootstraps one probe worker: with no
	// workers at all the session cannot start, and the controller needs
	// at least one stats stream to steer by.
	a := NewAutoScaler(0, 8)
	if got := a.Evaluate(nil); got != 1 {
		t.Fatalf("Evaluate(empty, min=0) = %d, want 1", got)
	}
}

func TestAutoScalerScaleUpClampedByMax(t *testing.T) {
	a := NewAutoScaler(1, 4)
	stats := []WorkerStats{
		{MinBuffered: 0}, {MinBuffered: 0}, {MinBuffered: 0},
	}
	// All three starving wants +3 (under scalerStepUp 4) but the pool may only
	// grow by one.
	if got := a.Evaluate(stats); got != 1 {
		t.Fatalf("Evaluate = %d, want 1 (clamped by MaxWorkers)", got)
	}
}

func TestAutoScalerMajorityStarvingBoundary(t *testing.T) {
	a := NewAutoScaler(1, 50)
	healthy := WorkerStats{MinBuffered: 4, BusyFrac: 0.9}
	starving := WorkerStats{MinBuffered: 0, BusyFrac: 0.9}
	// Exactly half starving is not a majority: no scale-up.
	half := []WorkerStats{starving, starving, healthy, healthy}
	if got := a.Evaluate(half); got != 0 {
		t.Fatalf("Evaluate(half starving) = %d, want 0", got)
	}
	// One more tips the majority.
	most := []WorkerStats{starving, starving, starving, healthy}
	if got := a.Evaluate(most); got != 3 {
		t.Fatalf("Evaluate(majority starving) = %d, want 3", got)
	}
	// scalerStepUp caps the per-evaluation growth however many starve.
	many := make([]WorkerStats, 9)
	for i := range many {
		many[i] = starving
	}
	if got := a.Evaluate(many); got != scalerStepUp {
		t.Fatalf("Evaluate(all starving) = %d, want scalerStepUp %d", got, scalerStepUp)
	}
}

// ---------------------------------------------------------------------
// Orchestrator control loop, one Step at a time.
// ---------------------------------------------------------------------

// fakeHandle is a launcher handle whose retirement the test controls.
type fakeHandle struct {
	id   string
	once sync.Once
	done chan struct{}
}

func newFakeHandle(id string) *fakeHandle { return &fakeHandle{id: id, done: make(chan struct{})} }

func (h *fakeHandle) ID() string { return h.id }

// Stop retires the fake immediately.
func (h *fakeHandle) Stop() { h.once.Do(func() { close(h.done) }) }

func (h *fakeHandle) Done() <-chan struct{} { return h.done }

// fakeSessionID is the one session of the control-law fixtures.
const fakeSessionID = "job"

// newFakeClockOrchestrator builds the control loop over a one-session
// Service and a fakeFleetLauncher (service_test.go): fleet workers
// register but run no pipelines, and the test feeds heartbeats to shape
// the scaler's view and calls Step in place of Run's ticker.
func newFakeClockOrchestrator(t *testing.T, min, max int) (*Orchestrator, *fakeFleetLauncher, *Service) {
	t.Helper()
	wh, spec := buildFixture(t, 64, 16)
	svc := NewService(wh)
	if err := svc.CreateSession(fakeSessionID, spec); err != nil {
		t.Fatal(err)
	}
	l := &fakeFleetLauncher{svc: svc}
	o := NewOrchestrator(svc, l, NewAutoScaler(min, max))
	o.ScaleInterval = time.Second
	return o, l, svc
}

func step(t *testing.T, o *Orchestrator) {
	t.Helper()
	if err := o.Step(); err != nil {
		t.Fatal(err)
	}
}

// starving and oversupplied are the two heartbeat profiles the control
// law reacts to.
var (
	starving     = WorkerStats{MinBuffered: 0, BusyFrac: 0.9}
	oversupplied = WorkerStats{MinBuffered: 8, BusyFrac: 0.05}
)

func TestOrchestratorGrowsOnStarvation(t *testing.T) {
	o, l, _ := newFakeClockOrchestrator(t, 1, 8)

	// Bootstrap: an empty pool grows to the minimum immediately.
	step(t, o)
	if got := o.Status().Live; got != 1 {
		t.Fatalf("live after bootstrap = %d, want 1", got)
	}

	// The lone worker starves (empty buffer): a launch holds nothing, so
	// the next Step launches more.
	l.heartbeat(t, starving)
	step(t, o)
	if got := o.Status().Live; got != 2 {
		t.Fatalf("live after starvation step = %d, want 2", got)
	}

	// Still starving: growth continues, Step after Step.
	l.heartbeat(t, starving)
	step(t, o)
	if got := o.Status().Live; got != 4 {
		t.Fatalf("live after second starvation step = %d, want 4", got)
	}
}

// TestOrchestratorNoFlapWithinCooldown states the step rule: the two
// Steps after a drain neither launch nor drain, and a launch holds
// nothing.
func TestOrchestratorNoFlapWithinCooldown(t *testing.T) {
	o, l, _ := newFakeClockOrchestrator(t, 1, 8)
	step(t, o)
	l.heartbeat(t, starving)
	step(t, o)
	if got := o.Status().Live; got != 2 {
		t.Fatalf("live on the Step after the bootstrap launch = %d, want 2", got)
	}

	// A drain may follow a launch on the very next Step.
	l.heartbeat(t, oversupplied)
	step(t, o)
	if got := o.Status().Draining; got != 1 {
		t.Fatalf("draining on the Step after a launch = %d, want 1", got)
	}

	// Starvation right after the drain holds for two Steps, however hard
	// the pool starves; the third Step launches.
	l.heartbeat(t, starving)
	for i := 1; i < drainHold; i++ {
		step(t, o)
		if got := o.Status().Launched; got != 2 {
			t.Fatalf("launched %d Steps after a drain = %d, want 2 (flapped)", i, got)
		}
	}
	step(t, o)
	if got := o.Status().Launched; got != 3 {
		t.Fatalf("launched once the drain hold ended = %d, want 3", got)
	}
}

func TestOrchestratorDrainsOnOversupply(t *testing.T) {
	o, l, svc := newFakeClockOrchestrator(t, 1, 8)
	step(t, o)
	l.heartbeat(t, starving)
	step(t, o) // 2 live

	// Both workers report full buffers and an idle data plane.
	l.heartbeat(t, oversupplied)
	step(t, o)
	st := o.Status()
	if st.Draining != 1 {
		t.Fatalf("draining = %d, want 1 (down to MinWorkers)", st.Draining)
	}
	if got := svc.FleetWorkerCount(); got != 1 {
		t.Fatalf("live fleet members = %d, want 1", got)
	}
	// The most recently launched worker is the drain victim, and its
	// assignment went with it.
	victim := l.ids()[len(l.ids())-1]
	assigned := svc.FleetAssignments()
	if got, draining := assigned[victim+"*"]; !draining || len(got) != 0 {
		t.Fatalf("expected LIFO drain victim %s to be draining and unassigned: %v", victim, assigned)
	}

	// Once the drained worker retires, the loop forgets it.
	l.retire(t, victim)
	step(t, o)
	st = o.Status()
	if st.Live != 1 || st.Draining != 0 {
		t.Fatalf("status after retire = %+v, want 1 live, 0 draining", st)
	}
}

// flakyLauncher fails a set number of launches before delegating.
type flakyLauncher struct {
	inner    *fakeFleetLauncher
	mu       sync.Mutex
	failures int
}

func (l *flakyLauncher) Launch(id string) (WorkerHandle, error) {
	l.mu.Lock()
	fail := l.failures > 0
	if fail {
		l.failures--
	}
	l.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("transient launch failure")
	}
	return l.inner.Launch(id)
}

// TestOrchestratorRetriesFailedLaunch: a transient launch failure is
// reported to OnError and retried on the next step — it must not abort
// the control loop (which would force-stop the pool and abandon
// buffered batches whose splits were already acknowledged).
func TestOrchestratorRetriesFailedLaunch(t *testing.T) {
	_, fl, svc := newFakeClockOrchestrator(t, 1, 4)
	o := NewOrchestrator(svc, &flakyLauncher{inner: fl, failures: 1}, NewAutoScaler(1, 4))
	o.ScaleInterval = time.Second
	var errs int
	o.OnError = func(error) { errs++ }

	step(t, o) // bootstrap launch fails transiently
	if errs != 1 {
		t.Fatalf("OnError calls = %d, want 1", errs)
	}
	if got := o.Status().Live; got != 0 {
		t.Fatalf("live after failed launch = %d, want 0", got)
	}
	// The failure holds nothing: the very next step retries and
	// succeeds.
	step(t, o)
	if got := o.Status().Live; got != 1 {
		t.Fatalf("live after retry = %d, want 1", got)
	}
	if errs != 1 {
		t.Fatalf("OnError calls after retry = %d, want 1", errs)
	}
}

// TestSessionClientSkipsUndialableWorker: one worker's dial failing must
// not fail Refresh (and with it the whole training client); the worker
// is skipped until a later refresh or until it leaves the membership.
func TestSessionClientSkipsUndialableWorker(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewWorkerWithEndpoint("w1", "ok", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterWorker("w2", "dead"); err != nil {
		t.Fatal(err)
	}
	dial := func(ep WorkerEndpoint) (WorkerAPI, error) {
		if ep.Endpoint != "ok" {
			return nil, fmt.Errorf("connection refused")
		}
		return dialWorker(t, w1), nil
	}
	c, err := NewSessionClient(m, dial, 0, 0)
	if err != nil {
		t.Fatalf("session client failed over one dead worker: %v", err)
	}
	if got := c.Connections(); got != 1 {
		t.Fatalf("Connections = %d, want 1 (dead worker skipped)", got)
	}
	// Once the master forgets the dead worker, refresh converges.
	if err := m.DeregisterWorker("w2"); err != nil {
		t.Fatal(err)
	}
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	if got := c.Connections(); got != 1 {
		t.Fatalf("Connections after reap = %d, want 1", got)
	}
}

func TestOrchestratorNeverExceedsBounds(t *testing.T) {
	o, l, svc := newFakeClockOrchestrator(t, 1, 3)
	for i := 0; i < 12; i++ {
		step(t, o)
		l.heartbeat(t, starving)
		if got := o.Status().Live; got > 3 {
			t.Fatalf("live = %d exceeds MaxWorkers 3", got)
		}
	}
	if got := o.Status().Live; got != 3 {
		t.Fatalf("live = %d, want steady state at MaxWorkers 3", got)
	}
	if got := svc.FleetWorkerCount(); got != 3 {
		t.Fatalf("service sees %d fleet members, want 3", got)
	}
}

// TestOrchestratorMaxZeroLaunchesNothing: MaxWorkers is a hard bound, so
// a loop bounded at zero never launches, yet still hands a worker that
// joined on its own its share of the sessions.
func TestOrchestratorMaxZeroLaunchesNothing(t *testing.T) {
	o, l, svc := newFakeClockOrchestrator(t, 1, 0)
	if _, err := l.Launch("manual"); err != nil { // registers, as a -role worker does
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		l.heartbeat(t, starving)
		step(t, o)
	}
	if st := o.Status(); st.Launched != 0 || st.Live != 0 {
		t.Fatalf("loop bounded at zero workers launched some: %+v", st)
	}
	if got := svc.FleetAssignments()["manual"]; len(got) != 1 || got[0] != fakeSessionID {
		t.Fatalf("manually joined worker holds %v, want [%s]", got, fakeSessionID)
	}
}

// TestOrchestratorPeriodicCheckpoint: with CheckpointEvery two
// ScaleIntervals, the first Step and then every second Step checkpoint.
func TestOrchestratorPeriodicCheckpoint(t *testing.T) {
	o, _, _ := newFakeClockOrchestrator(t, 1, 2)
	o.CheckpointEvery = 2 * time.Second
	step(t, o)
	sessions, err := DecodeServiceCheckpoint(o.LastCheckpoint())
	if err != nil || sessions[fakeSessionID] == nil {
		t.Fatalf("checkpoint after first due step = %v, %v; want the session's reader state", sessions, err)
	}
	if got := o.Status().Checkpoints; got != 1 {
		t.Fatalf("checkpoints = %d, want 1", got)
	}
	step(t, o) // one interval since: not due yet
	if got := o.Status().Checkpoints; got != 1 {
		t.Fatalf("checkpoints within period = %d, want 1", got)
	}
	step(t, o)
	if got := o.Status().Checkpoints; got != 2 {
		t.Fatalf("checkpoints after period = %d, want 2", got)
	}
}

// TestOrchestratorControlLawScript pins the decisions Run makes, one Step
// per script entry: S and O heartbeat every fleet worker as starving or
// oversupplied, R retires every draining worker, - does neither. A drain
// holds the next two steps (the drains at steps 3 and 9 hold steps 4–5
// and 10–11; steps 6 and 12 launch); a launch may be drained on the very
// next step (steps 2→3 and 13→14); with CheckpointEvery two intervals,
// every second step checkpoints.
func TestOrchestratorControlLawScript(t *testing.T) {
	o, l, svc := newFakeClockOrchestrator(t, 1, 4)
	o.CheckpointEvery = 2 * o.ScaleInterval
	script := []struct {
		entry                                          byte
		live, draining, launched, drained, checkpoints int
	}{
		{'-', 1, 0, 1, 0, 1},
		{'S', 2, 0, 2, 0, 1},
		{'O', 2, 1, 2, 1, 2},
		{'S', 2, 1, 2, 1, 2},
		{'S', 2, 1, 2, 1, 3},
		{'S', 3, 1, 3, 1, 3},
		{'S', 4, 1, 4, 1, 4},
		{'S', 4, 1, 4, 1, 4},
		{'O', 4, 3, 4, 3, 5},
		{'R', 1, 0, 4, 3, 5},
		{'S', 1, 0, 4, 3, 6},
		{'S', 2, 0, 5, 3, 6},
		{'S', 4, 0, 7, 3, 7},
		{'O', 4, 3, 7, 6, 7},
		{'O', 4, 3, 7, 6, 8},
		{'O', 4, 3, 7, 6, 8},
		{'O', 4, 3, 7, 6, 9},
	}
	for i, s := range script {
		switch s.entry {
		case 'S':
			l.heartbeat(t, starving)
		case 'O':
			l.heartbeat(t, oversupplied)
		case 'R':
			for id := range svc.FleetAssignments() {
				if draining, ok := strings.CutSuffix(id, "*"); ok {
					l.retire(t, draining)
				}
			}
		}
		step(t, o)
		st := o.Status()
		got := [5]int{st.Live, st.Draining, st.Launched, st.Drained, st.Checkpoints}
		if want := [5]int{s.live, s.draining, s.launched, s.drained, s.checkpoints}; got != want {
			t.Fatalf("step %d (%c): live, draining, launched, drained, checkpoints = %v, want %v", i+1, s.entry, got, want)
		}
	}
}

// ---------------------------------------------------------------------
// Closed loop over real fleet workers: the orchestrator owns the pool, a
// tenant client resolves membership from the session's master, every
// row arrives.
// ---------------------------------------------------------------------

// runFleetLoop starts o.Run beside the test and returns the function
// that stops it and waits for the pool to retire.
func runFleetLoop(t *testing.T, o *Orchestrator) (stopAndWait func()) {
	t.Helper()
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(stop) }()
	return func() {
		t.Helper()
		close(stop)
		select {
		case err := <-runDone:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("orchestrator did not stop")
		}
	}
}

// assertPoolGone checks that nothing the loop launched is still tracked,
// registered with the service, or a member of the session.
func assertPoolGone(t *testing.T, o *Orchestrator, svc *Service) {
	t.Helper()
	if st := o.Status(); st.Live != 0 {
		t.Fatalf("workers still tracked after stop: %+v", st)
	}
	if assigned := svc.FleetAssignments(); len(assigned) != 0 {
		t.Fatalf("fleet members left registered: %v", assigned)
	}
	m, err := svc.Master(fakeSessionID)
	if err != nil {
		t.Fatal(err)
	}
	if eps, _ := m.ListWorkers(); len(eps) != 0 {
		t.Fatalf("pipelines left registered with the session: %+v", eps)
	}
}

func TestOrchestratedSessionDeliversAllRows(t *testing.T) {
	wh, spec := buildFixture(t, 96, 8) // 24 splits, 192 rows
	svc := NewService(wh)
	if err := svc.CreateSession(fakeSessionID, spec); err != nil {
		t.Fatal(err)
	}
	var launcherErr sync.Map
	l := &FleetLauncher{
		Service:        svc,
		WH:             wh,
		HeartbeatEvery: time.Millisecond,
		OnError: func(id string, err error) {
			launcherErr.Store(id, err)
		},
	}
	o := NewOrchestrator(svc, l, NewAutoScaler(1, 4))
	o.ScaleInterval = time.Millisecond
	o.CheckpointEvery = 5 * time.Millisecond
	stopAndWait := runFleetLoop(t, o)

	client, err := NewTenantClient(svc, fakeSessionID, SessionWorkerDialer(fakeSessionID), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	client.RefreshEvery = 500 * time.Microsecond
	rows := 0
	for {
		b, ok, err := client.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows += b.Rows
	}
	stopAndWait()
	launcherErr.Range(func(id, err any) bool {
		t.Errorf("worker %v failed: %v", id, err)
		return true
	})
	if rows != 192 {
		t.Fatalf("client consumed %d rows, want 192", rows)
	}
	if o.Status().Launched == 0 {
		t.Fatal("orchestrator launched no workers")
	}
	assertPoolGone(t, o, svc)
	if o.LastCheckpoint() == nil {
		t.Fatal("orchestrator took no checkpoints")
	}
}

// TestOrchestratorStopAbandonsPool force-stops a running pool mid-session
// and verifies every worker retires and deregisters.
func TestOrchestratorStopAbandonsPool(t *testing.T) {
	wh, spec := buildFixture(t, 128, 8) // 32 splits
	spec.BufferDepth = 2                // block pipelines on backpressure
	svc := NewService(wh)
	if err := svc.CreateSession(fakeSessionID, spec); err != nil {
		t.Fatal(err)
	}
	l := &FleetLauncher{
		Service:        svc,
		WH:             wh,
		HeartbeatEvery: time.Millisecond,
	}
	o := NewOrchestrator(svc, l, NewAutoScaler(2, 2))
	o.ScaleInterval = time.Millisecond
	stopAndWait := runFleetLoop(t, o)

	m, err := svc.Master(fakeSessionID)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.WorkerCount() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.WorkerCount(); got < 2 {
		t.Fatalf("only %d pipelines joined the session before the stop", got)
	}
	stopAndWait()
	assertPoolGone(t, o, svc)
}
