package dpp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsi/internal/dwrf"
)

// ---------------------------------------------------------------------
// Weighted fair-share apportionment.
// ---------------------------------------------------------------------

func TestFairShareApportionment(t *testing.T) {
	cases := []struct {
		n       int
		weights []float64
		want    []int
	}{
		{6, []float64{1, 2, 3}, []int{1, 2, 3}},
		{4, []float64{1, 1, 1}, []int{2, 1, 1}}, // largest remainder, ties to earlier index
		{0, []float64{1, 2}, []int{0, 0}},
		{5, nil, nil},
		{3, []float64{0, 0}, []int{0, 0}},
		{1, []float64{1, 100}, []int{0, 1}},
	}
	for i, c := range cases {
		got := fairShare(c.n, c.weights)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: fairShare = %v, want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: fairShare = %v, want %v", i, got, c.want)
			}
		}
	}
}

// TestFairShareWithinOneOfQuota property-checks the acceptance bound:
// every integer share sits within one worker of its exact weighted
// quota, and shares sum to the pool size.
func TestFairShareWithinOneOfQuota(t *testing.T) {
	weightSets := [][]float64{
		{1, 2, 3}, {1, 1, 1, 1, 1}, {0.5, 2.5}, {7}, {3, 1, 1, 1, 2, 4},
	}
	for _, weights := range weightSets {
		var total float64
		for _, w := range weights {
			total += w
		}
		for n := 0; n <= 16; n++ {
			share := fairShare(n, weights)
			sum := 0
			for i, s := range share {
				sum += s
				quota := float64(n) * weights[i] / total
				if math.Abs(float64(s)-quota) >= 1 {
					t.Fatalf("n=%d weights=%v: share[%d]=%d vs quota %.2f off by ≥1", n, weights, i, s, quota)
				}
			}
			if sum != n {
				t.Fatalf("n=%d weights=%v: shares %v sum to %d", n, weights, share, sum)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Service registry basics.
// ---------------------------------------------------------------------

func TestServiceSessionRegistry(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	svc := NewService(wh)

	specA := spec
	specA.Weight = 2
	if err := svc.CreateSession("a", specA); err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateSession("a", spec); err == nil {
		t.Fatal("duplicate session accepted")
	}
	if err := svc.CreateSession("b", spec); err != nil {
		t.Fatal(err)
	}
	infos, err := svc.ListSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].ID != "a" || infos[1].ID != "b" {
		t.Fatalf("ListSessions = %+v", infos)
	}
	if infos[0].Weight != 2 || infos[1].Weight != 1 {
		t.Fatalf("weights = %v/%v, want 2/1 (zero weight defaults to 1)", infos[0].Weight, infos[1].Weight)
	}
	if infos[0].Total != 8 || infos[0].Done {
		t.Fatalf("session a progress = %+v", infos[0])
	}
	if _, err := svc.SessionMaster("nope"); err == nil {
		t.Fatal("unknown session resolved")
	}
	if err := svc.CloseSession("a"); err != nil {
		t.Fatal(err)
	}
	if err := svc.CloseSession("a"); err == nil {
		t.Fatal("double close accepted")
	}
	infos, _ = svc.ListSessions()
	if len(infos) != 1 || infos[0].ID != "b" {
		t.Fatalf("registry after close = %+v", infos)
	}
}

// ---------------------------------------------------------------------
// Fleet-level fair share, one Step at a time: deterministic, no sleeps.
// ---------------------------------------------------------------------

// fakeFleetLauncher registers fleet workers with the service but runs
// no pipelines; the orchestrator's control law and the service's
// rebalance run exactly as in production.
type fakeFleetLauncher struct {
	svc *Service

	mu      sync.Mutex
	handles map[string]*fakeHandle
	order   []string
}

func (l *fakeFleetLauncher) Launch(id string) (WorkerHandle, error) {
	if err := l.svc.RegisterFleetWorker(id, "fake://"+id); err != nil {
		return nil, err
	}
	h := newFakeHandle(id)
	l.mu.Lock()
	if l.handles == nil {
		l.handles = make(map[string]*fakeHandle)
	}
	l.handles[id] = h
	l.order = append(l.order, id)
	l.mu.Unlock()
	return h, nil
}

// ids returns launch order.
func (l *fakeFleetLauncher) ids() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.order...)
}

// heartbeat reports stats for every launched fleet worker still
// registered, as real FleetWorkers do every period.
func (l *fakeFleetLauncher) heartbeat(t *testing.T, stats WorkerStats) {
	t.Helper()
	for _, id := range l.ids() {
		// Deregistered workers reject the heartbeat; fine.
		_, _ = l.svc.FleetHeartbeat(id, stats)
	}
}

// heartbeatAll reports a healthy, busy snapshot the policy leaves alone.
func (l *fakeFleetLauncher) heartbeatAll(t *testing.T) {
	t.Helper()
	l.heartbeat(t, WorkerStats{MinBuffered: 4, BusyFrac: 0.9})
}

// retire marks a fleet worker drained and deregisters it, as a real
// FleetWorker's Run does once its pipelines finish.
func (l *fakeFleetLauncher) retire(t *testing.T, id string) {
	t.Helper()
	l.mu.Lock()
	h := l.handles[id]
	l.mu.Unlock()
	if h == nil {
		t.Fatalf("retire of unknown fleet worker %s", id)
	}
	h.Stop()
	if err := l.svc.DeregisterFleetWorker(id); err != nil {
		t.Fatal(err)
	}
}

// assertFairShare checks every session's assignment count against its
// weighted quota of the live fleet, within one worker (the acceptance
// bound).
func assertFairShare(t *testing.T, svc *Service, weights map[string]float64) {
	t.Helper()
	n := svc.FleetWorkerCount()
	var total float64
	for _, w := range weights {
		total += w
	}
	counts := svc.AssignmentCounts()
	for id, w := range weights {
		quota := float64(n) * w / total
		if diff := math.Abs(float64(counts[id]) - quota); diff > 1 {
			t.Fatalf("session %s allocation %d vs quota %.2f (fleet %d, counts %v): off by %.2f > 1",
				id, counts[id], quota, n, counts, diff)
		}
	}
}

// TestFleetFairShareConvergenceVirtualClock drives the fleet controller
// deterministically: the test calls Step in place of Run's ticker, fake
// fleet workers provide capacity, and the weighted fair-share targets
// must converge within one worker of every tenant's quota — then
// re-converge when a tenant leaves and when capacity drains.
func TestFleetFairShareConvergenceVirtualClock(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	svc := NewService(wh)
	weights := map[string]float64{"a": 1, "b": 2, "c": 3}
	for _, id := range []string{"a", "b", "c"} {
		s := spec
		s.Weight = weights[id]
		if err := svc.CreateSession(id, s); err != nil {
			t.Fatal(err)
		}
	}

	l := &fakeFleetLauncher{svc: svc}
	o := NewOrchestrator(svc, l, NewAutoScaler(6, 6))
	o.ScaleInterval = time.Second

	// Bootstrap: an empty pool grows to the minimum and the rebalance
	// divides it 1/2/3.
	step(t, o)
	if got := o.Status().Live; got != 6 {
		t.Fatalf("live after bootstrap = %d, want 6", got)
	}
	// Assignments are applied by the same Step that launched the
	// workers on the next pass (launch happens after the rebalance).
	l.heartbeatAll(t)
	step(t, o)
	assertFairShare(t, svc, weights)
	counts := svc.AssignmentCounts()
	if counts["a"] != 1 || counts["b"] != 2 || counts["c"] != 3 {
		t.Fatalf("assignments = %v, want a:1 b:2 c:3", counts)
	}

	// Tenant c leaves: its capacity is re-apportioned 1:2 across a and b.
	if err := svc.CloseSession("c"); err != nil {
		t.Fatal(err)
	}
	l.heartbeatAll(t)
	step(t, o)
	delete(weights, "c")
	assertFairShare(t, svc, weights)
	counts = svc.AssignmentCounts()
	if counts["a"] != 2 || counts["b"] != 4 {
		t.Fatalf("assignments after close = %v, want a:2 b:4", counts)
	}

	// Capacity shrinks: drain two workers; the remaining four are still
	// split 1:2 within a worker.
	if err := svc.DrainFleetWorker("dpp-fw-0"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DrainFleetWorker("dpp-fw-1"); err != nil {
		t.Fatal(err)
	}
	l.retire(t, "dpp-fw-0")
	l.retire(t, "dpp-fw-1")
	l.heartbeatAll(t)
	step(t, o)
	if got := svc.FleetWorkerCount(); got != 4 {
		t.Fatalf("fleet after drain = %d, want 4", got)
	}
	assertFairShare(t, svc, weights)

	// A zero-quota tenant (tiny weight) still gets a piggyback
	// assignment so it makes progress.
	tiny := spec
	tiny.Weight = 0.01
	if err := svc.CreateSession("tiny", tiny); err != nil {
		t.Fatal(err)
	}
	l.heartbeatAll(t)
	step(t, o)
	if got := svc.AssignmentCounts()["tiny"]; got != 1 {
		t.Fatalf("tiny tenant assignments = %d, want 1 (piggyback)", got)
	}
}

// TestFleetRegistrationSpreadsLoad: workers register one at a time and
// each registration rebalances, so the first member takes every
// session's floor assignment; the second must not be left idle beside
// it (an idle member reads as oversupply and hides the loaded one's
// starvation from the scaling policy).
func TestFleetRegistrationSpreadsLoad(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	svc := NewService(wh)
	for i, id := range []string{"a", "b", "c"} {
		s := spec
		s.Weight = float64(i + 1)
		if err := svc.CreateSession(id, s); err != nil {
			t.Fatal(err)
		}
	}
	l := &fakeFleetLauncher{svc: svc}
	for _, id := range []string{"w0", "w1"} {
		if _, err := l.Launch(id); err != nil {
			t.Fatal(err)
		}
	}
	assigned := svc.FleetAssignments()
	if len(assigned["w0"]) == 0 || len(assigned["w1"]) == 0 {
		t.Fatalf("a member was left idle: %v", assigned)
	}
	for id, n := range svc.AssignmentCounts() {
		if n != 1 {
			t.Fatalf("session %s holds %d assignments, want its floor of 1: %v", id, n, assigned)
		}
	}
}

// hookedFleet is a FleetControl whose session masters call registered
// after a pipeline's RegisterWorker returns and heartbeat on each of its
// Heartbeats, so a test can hold or count a fleet worker's pipelines
// from outside.
type hookedFleet struct {
	FleetControl
	registered func()
	heartbeat  func()
}

func (f hookedFleet) SessionMaster(sessionID string) (MasterAPI, error) {
	m, err := f.FleetControl.SessionMaster(sessionID)
	if err != nil {
		return nil, err
	}
	return hookedMaster{MasterAPI: m, fleet: f}, nil
}

type hookedMaster struct {
	MasterAPI
	fleet hookedFleet
}

func (m hookedMaster) RegisterWorker(workerID, endpoint string) (SessionSpec, error) {
	spec, err := m.MasterAPI.RegisterWorker(workerID, endpoint)
	if m.fleet.registered != nil {
		m.fleet.registered()
	}
	return spec, err
}

func (m hookedMaster) Heartbeat(workerID string, stats WorkerStats) error {
	if m.fleet.heartbeat != nil {
		m.fleet.heartbeat()
	}
	return m.MasterAPI.Heartbeat(workerID, stats)
}

// TestFleetPipelineHeartbeatsAtFleetPeriod: a fleet worker's pipelines
// heartbeat their session masters at the fleet worker's own period. No
// client consumes and the buffer holds one batch of a four-batch split,
// so the pipeline sits in Run and every heartbeat counted comes from its
// ticker.
func TestFleetPipelineHeartbeatsAtFleetPeriod(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	spec.BatchSize = 4
	spec.BufferDepth = 1
	svc := NewService(wh)
	if err := svc.CreateSession(fakeSessionID, spec); err != nil {
		t.Fatal(err)
	}
	var beats atomic.Int32
	third := make(chan struct{})
	ctrl := hookedFleet{FleetControl: svc, heartbeat: func() {
		if beats.Add(1) == 3 {
			close(third)
		}
	}}
	fw, stopServe, err := ListenAndServeFleetWorker("fw1", "127.0.0.1:0", ctrl, wh, func(fw *FleetWorker) {
		fw.HeartbeatEvery = time.Millisecond
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stopServe()
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() { done <- fw.Run(stop) }()
	select {
	case <-third:
	case <-time.After(400 * time.Millisecond):
		t.Errorf("the pipeline heartbeat its session master %d times in 400ms, want at least 3 at the fleet worker's 1ms period", beats.Load())
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------
// Sessions racing registry churn against worker churn, under -race.
// ---------------------------------------------------------------------

// TestServiceConcurrentSessionChurn runs two tenants repeatedly
// creating, consuming, and closing sessions against one live fleet
// whose membership churns underneath them. Every consumed session must
// deliver its rows exactly once; run with -race this is the Service's
// concurrency check.
func TestServiceConcurrentSessionChurn(t *testing.T) {
	wh, spec := buildFixture(t, 48, 16)
	svc := NewService(wh)
	svc.FleetLeaseTimeout = time.Second
	launcher := &FleetLauncher{
		Service:        svc,
		WH:             wh,
		HeartbeatEvery: time.Millisecond,
	}
	o := NewOrchestrator(svc, launcher, NewAutoScaler(2, 4))
	o.ScaleInterval = time.Millisecond
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(stop) }()

	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds)
	for tenant := 0; tenant < 2; tenant++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				id := fmt.Sprintf("tenant%d-r%d", tenant, round)
				s := spec
				s.Weight = float64(tenant + 1)
				if err := svc.CreateSession(id, s); err != nil {
					errs <- err
					return
				}
				client, err := NewTenantClient(svc, id, SessionWorkerDialer(id), 0, tenant)
				if err != nil {
					errs <- err
					return
				}
				client.RefreshEvery = 500 * time.Microsecond
				rows := 0
				for {
					b, ok, err := client.Next()
					if err != nil {
						errs <- fmt.Errorf("%s: %w", id, err)
						return
					}
					if !ok {
						break
					}
					rows += b.Rows
				}
				if rows != 96 {
					errs <- fmt.Errorf("%s consumed %d rows, want 96", id, rows)
					return
				}
				if err := svc.CloseSession(id); err != nil {
					errs <- fmt.Errorf("%s close: %w", id, err)
					return
				}
			}
		}(tenant)
	}
	wg.Wait()
	close(stop)
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fleet controller did not stop")
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestServiceCloseSessionMidRunAbandonsPipelines closes a tenant while
// its pipelines are mid-run with full buffers and no consumer: the
// closed master rejects their control calls, the disown path abandons
// the unconsumable buffers, and the fleet member frees up instead of
// wedging — a later tenant is served by the same fleet.
func TestServiceCloseSessionMidRunAbandonsPipelines(t *testing.T) {
	wh, spec := buildFixture(t, 96, 16)
	spec.BufferDepth = 2 // small buffer: pipelines block on backpressure fast
	svc := NewService(wh)
	if err := svc.CreateSession("doomed", spec); err != nil {
		t.Fatal(err)
	}
	launcher := &FleetLauncher{
		Service:        svc,
		WH:             wh,
		HeartbeatEvery: time.Millisecond,
	}
	o := NewOrchestrator(svc, launcher, NewAutoScaler(1, 2))
	o.ScaleInterval = time.Millisecond
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(stop) }()

	// Wait for a pipeline to register and fill its buffer; nothing ever
	// consumes the doomed session.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m, err := svc.Master("doomed"); err == nil && m.WorkerCount() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.CloseSession("doomed"); err != nil {
		t.Fatal(err)
	}

	// The fleet must shed the doomed pipelines (abandoned via disown,
	// not drained by a consumer) and then serve a fresh tenant fully.
	for time.Now().Before(deadline) {
		clear := true
		for i := 0; i < 8; i++ {
			if fw := launcher.Worker(fmt.Sprintf("%s-%d", FleetIDPrefix, i)); fw != nil && fw.Pipeline("doomed") != nil {
				clear = false
			}
		}
		if clear {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.CreateSession("fresh", spec); err != nil {
		t.Fatal(err)
	}
	client, err := NewTenantClient(svc, "fresh", SessionWorkerDialer("fresh"), 0, 0)
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
	if rows != 192 {
		t.Fatalf("fresh tenant consumed %d rows after mid-run close, want 192", rows)
	}
	close(stop)
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fleet controller did not stop (wedged member?)")
	}
	if err := svc.CloseSession("fresh"); err != nil {
		t.Fatal(err)
	}
}

// TestHeartbeatFieldsCrossRPC sends one WorkerStats with every field
// set through a served control plane, as a pipeline's session heartbeat
// and as a fleet heartbeat, and finds each field at its reader:
// Master.Recovery and Service.PolicyStats (the scaler's input). A
// heartbeat for a session closed since then comes
// back over the same connection as disownment, not a transport error.
func TestHeartbeatFieldsCrossRPC(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	svc := NewService(wh)
	if err := svc.CreateSession("s", spec); err != nil {
		t.Fatal(err)
	}
	ln, stop, err := ServeService(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	rs, err := DialService(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	sm, err := rs.SessionMaster("s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.RegisterWorker("fw", "ep"); err != nil {
		t.Fatal(err)
	}
	sent := WorkerStats{
		MinBuffered: 3,
		BusyFrac:    0.25,
		Recovery: dwrf.Recovery{
			StorageRetries: 1, StorageFailovers: 2, HedgedReads: 3,
			HedgeWins: 4, CorruptStripes: 5, Quarantines: 6,
		},
		SplitsReleased: 7,
	}

	if err := sm.Heartbeat("fw", sent); err != nil {
		t.Fatal(err)
	}
	m, err := svc.Master("s")
	if err != nil {
		t.Fatal(err)
	}
	if rec, released := m.Recovery(); rec != sent.Recovery || released != sent.SplitsReleased {
		t.Fatalf("Master.Recovery = %+v, %d; sent %+v, %d", rec, released, sent.Recovery, sent.SplitsReleased)
	}

	if err := rs.RegisterFleetWorker("fw", "ep"); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.FleetHeartbeat("fw", sent); err != nil {
		t.Fatal(err)
	}
	if got := svc.PolicyStats(); len(got) != 1 || got[0] != sent {
		t.Fatalf("PolicyStats = %+v, sent %+v", got, sent)
	}

	if err := svc.CloseSession("s"); err != nil {
		t.Fatal(err)
	}
	if err := sm.Heartbeat("fw", sent); !isDisownedErr(err) {
		t.Fatalf("heartbeat for a closed session = %v, want disownment", err)
	}
}

// ---------------------------------------------------------------------
// Requeue ordering: a requeued window precedes fresh output.
// ---------------------------------------------------------------------

// TestUngetBatchesOrdering asserts the abnormal-disconnect requeue path
// re-delivers the rescued window before any fresh buffer output, in its
// original order — the regression guard for the framed plane's
// exactly-once recovery: a requeued batch must not starve behind an
// unbounded stream of newer deliveries.
func TestUngetBatchesOrdering(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker("unget-w", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(seq int32) *blob {
		return &blob{Rows: 1, Labels: []float32{float32(seq)}, Split: 9, Seq: seq, SeqCount: 4}
	}
	// Fresh output already buffered.
	if err := w.deliver(encodeFrame(mk(3)), nil); err != nil {
		t.Fatal(err)
	}
	if err := w.deliver(encodeFrame(mk(4)), nil); err != nil {
		t.Fatal(err)
	}
	// A broken stream's window returns: it must jump the queue,
	// preserving its own order.
	w.ungetFrames([]*frame{encodeFrame(mk(1)), encodeFrame(mk(2))})
	var got []int32
	for i := 0; i < 4; i++ {
		f, ok, _ := w.tryGetFrame()
		if !ok {
			t.Fatalf("buffer empty after %d pops", i)
		}
		b, err := f.decode()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b.Seq)
	}
	want := []int32{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order = %v, want %v", got, want)
		}
	}
}

// ---------------------------------------------------------------------
// The fleet heartbeat alone declares a worker dead.
// ---------------------------------------------------------------------

// TestFleetReapRequeuesAtEverySession: a fleet member holding leases at
// two sessions goes silent — while one of its pipelines still serves an
// open framed stream, since liveness is the control plane and not the
// data plane. Once the service's clock passes FleetLeaseTimeout, one
// ReapDead requeues every lease at both masters, forgets the member at
// both, and keeps what it last reported in each session's Recovery; a
// fresh worker then re-leases the splits.
func TestFleetReapRequeuesAtEverySession(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16) // 8 splits per session
	svc := NewService(wh)
	now := time.Unix(1000, 0)
	svc.now = func() time.Time { return now }
	sessions := []string{"s1", "s2"}
	for _, id := range sessions {
		if err := svc.CreateSession(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.RegisterFleetWorker("fw", ""); err != nil {
		t.Fatal(err)
	}
	reported := WorkerStats{Recovery: dwrf.Recovery{StorageRetries: 2, HedgedReads: 1}, SplitsReleased: 1}
	masters := make(map[string]*Master)
	leased := make(map[string][]int)
	var pipeline *Worker
	for _, id := range sessions {
		m, err := svc.Master(id)
		if err != nil {
			t.Fatal(err)
		}
		masters[id] = m
		if pipeline, err = NewWorker("fw", m, wh); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			_, split, ok, _, err := m.NextSplit("fw")
			if err != nil || !ok {
				t.Fatalf("%s: lease failed: ok=%v err=%v", id, ok, err)
			}
			leased[id] = append(leased[id], split)
		}
		if err := m.Heartbeat("fw", reported); err != nil {
			t.Fatal(err)
		}
	}
	ln, stopServe, err := ServeWorker(pipeline, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopServe()
	api, err := DialWorkerFramed(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	stream, ok := api.(*StreamWorker)
	if !ok {
		t.Fatalf("dial returned %T, want framed stream", api)
	}
	defer stream.Close()
	if _, ok, done, err := stream.FetchBatch(); ok || done || err != nil {
		t.Fatalf("unexpected fetch result ok=%v done=%v err=%v", ok, done, err)
	}

	inflight := func(m *Master) int {
		m.mu.Lock()
		defer m.mu.Unlock()
		return len(m.inflight)
	}
	now = now.Add(svc.FleetLeaseTimeout) // silent for exactly the timeout: alive
	svc.ReapDead()
	for _, id := range sessions {
		if n, members := inflight(masters[id]), masters[id].WorkerCount(); n != 2 || members != 1 {
			t.Fatalf("%s before the timeout passed: %d leases, %d members; want 2 and 1", id, n, members)
		}
	}
	now = now.Add(time.Millisecond)
	svc.ReapDead()
	if n := svc.FleetWorkerCount(); n != 0 {
		t.Fatalf("%d fleet members after the reap, want 0", n)
	}
	for _, id := range sessions {
		m := masters[id]
		eps, err := m.ListWorkers()
		if err != nil {
			t.Fatal(err)
		}
		if n := inflight(m); n != 0 || len(eps) != 0 {
			t.Fatalf("%s after the reap: %d leases, members %+v; want none", id, n, eps)
		}
		if rec, released := m.Recovery(); rec != reported.Recovery || released != reported.SplitsReleased {
			t.Fatalf("%s: Recovery = %+v, %d released; want the dead member's last report %+v, %d",
				id, rec, released, reported.Recovery, reported.SplitsReleased)
		}
		if _, err := m.RegisterWorker("fresh", ""); err != nil {
			t.Fatal(err)
		}
		got := make(map[int]bool)
		for {
			_, split, ok, _, err := m.NextSplit("fresh")
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got[split] = true
		}
		for _, split := range leased[id] {
			if !got[split] {
				t.Fatalf("%s: requeued split %d never re-leased (got %v)", id, split, got)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Crash fault injection at the worker level.
// ---------------------------------------------------------------------

// TestWorkerCrashGoesDark asserts the fault hook's contract: a crashed
// worker serves nothing on any plane, never reports done, and never
// deregisters — the service must discover the death by its fleet
// heartbeat's silence.
func TestWorkerCrashGoesDark(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker("crash-w", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(nil) }()

	// Wait for some inventory, then crash.
	deadline := time.Now().Add(10 * time.Second)
	for w.Buffered() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w.Buffered() == 0 {
		t.Fatal("worker produced no inventory")
	}
	w.Crash()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("crashed Run returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not unwind after crash")
	}
	if _, ok, done := w.tryGetFrame(); ok || done {
		t.Fatalf("crashed worker served a batch (ok=%v done=%v)", ok, done)
	}
	if batches, done, err := streamResult(t, dialWorker(t, w)); batches != 0 || done || err == nil {
		t.Fatalf("a stream to the crashed worker delivered %d batches, done %v, err %v; want an error", batches, done, err)
	}
	if err := w.Retire(nil); err != nil {
		t.Fatalf("crashed Retire = %v, want nil no-op", err)
	}
	eps, err := m.ListWorkers()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 1 {
		t.Fatalf("crashed worker deregistered itself: %+v", eps)
	}
}
