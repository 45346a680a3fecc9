package dpp

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dsi/internal/ware"
	"dsi/internal/warehouse"
)

// FleetWorker is one node of the shared multi-tenant fleet: a single
// registered identity and one shared data-plane listener hosting one
// preprocessing pipeline (a Worker) per assigned session. Assignments
// arrive with every fleet heartbeat (FleetControl.FleetHeartbeat); a
// granted session starts a pipeline that registers with that session's
// master, and a revoked session drains through the ordinary drain
// protocol — the session master stops leasing to it, the pipeline
// delivers its in-flight splits, serves out its buffer, and
// deregisters. The data plane demultiplexes per session: a stream's
// hello carries a session ID that routes to the matching pipeline's
// buffer.
type FleetWorker struct {
	ID string
	// Endpoint is the shared data-plane address registered with the
	// service and with every session master the worker joins.
	Endpoint string
	// HeartbeatEvery is the fleet heartbeat (and assignment
	// reconciliation) period; default 500ms. The service declares the
	// worker dead once its fleet heartbeat has been silent for
	// Service.FleetLeaseTimeout. Each hosted pipeline heartbeats its
	// session master at the same period.
	HeartbeatEvery time.Duration
	// OnError receives per-session pipeline failures (default ignored:
	// the pipeline retires and its session master requeues what it
	// still leased).
	OnError func(sessionID string, err error)

	// CacheBytes sizes the node's shared content-addressed batch cache:
	// 0 uses DefaultFleetCacheBytes, negative disables caching. Set
	// before Run (the cache is created when the first pipeline starts).
	CacheBytes int64

	ctrl FleetControl
	wh   *warehouse.Warehouse

	cacheOnce sync.Once
	cache     *ware.Cache

	// stopServe closes the data-plane listener ListenAndServeFleetWorker
	// bound; a crash closes it too.
	stopServe func()

	mu        sync.Mutex
	pipelines map[string]*fleetPipeline
	crashed   bool
	crashCh   chan struct{}
}

// DefaultFleetCacheBytes is the default per-node budget of the shared
// content-addressed batch cache.
const DefaultFleetCacheBytes = 256 << 20

// Cache returns the node's shared batch cache, creating it on first
// use; nil when CacheBytes is negative (caching disabled).
func (fw *FleetWorker) Cache() *ware.Cache {
	fw.cacheOnce.Do(func() {
		size := fw.CacheBytes
		if size == 0 {
			size = DefaultFleetCacheBytes
		}
		if size > 0 {
			fw.cache = ware.NewCache(size)
		}
	})
	return fw.cache
}

// fleetPipeline is one hosted per-session pipeline.
type fleetPipeline struct {
	w    *Worker
	stop chan struct{}
	once sync.Once
	done chan struct{}
}

func (p *fleetPipeline) forceStop() { p.once.Do(func() { close(p.stop) }) }

// source is the data plane's sourceResolver: a stream whose hello names
// a session lands on that session's pipeline buffer.
func (fw *FleetWorker) source(sessionID string) (frameSource, error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	p := fw.pipelines[sessionID]
	if p == nil {
		return nil, fmt.Errorf("dpp: fleet worker %s hosts no session %q", fw.ID, sessionID)
	}
	return p.w, nil
}

// AggregateStats is the fleet heartbeat: the live pipelines' scaler
// windows, sampled and restarted, folded into what the service reads of
// a member — the worst-case minimum buffer and the mean busy fraction
// (PolicyStats → AutoScaler.Evaluate). A worker with no assignments
// reports an idle profile, a drain candidate. The recovery counters are
// per session and ride the pipelines' own session heartbeats
// (Master.Recovery).
func (fw *FleetWorker) AggregateStats() WorkerStats {
	fw.mu.Lock()
	workers := make([]*Worker, 0, len(fw.pipelines))
	for _, p := range fw.pipelines {
		workers = append(workers, p.w)
	}
	fw.mu.Unlock()
	agg := WorkerStats{MinBuffered: idleBuffered}
	for _, w := range workers {
		st := w.sampleStats()
		if st.MinBuffered < agg.MinBuffered {
			agg.MinBuffered = st.MinBuffered
		}
		agg.BusyFrac += st.BusyFrac
	}
	if len(workers) > 0 {
		agg.BusyFrac /= float64(len(workers))
	}
	return agg
}

// heartbeatEvery resolves the effective fleet heartbeat period.
func (fw *FleetWorker) heartbeatEvery() time.Duration {
	if fw.HeartbeatEvery > 0 {
		return fw.HeartbeatEvery
	}
	return defaultHeartbeatEvery
}

// Crash is the fleet-level fault-injection hook: every hosted pipeline
// crashes (data plane severs, heartbeats stop, nothing deregisters),
// its data-plane listener closes, and the fleet worker goes silent,
// exactly as a killed node would. The service discovers the death
// through fleet-heartbeat silence (Service.ReapDead) and deregisters
// the node at every session master, which requeues every lease it held.
func (fw *FleetWorker) Crash() {
	fw.mu.Lock()
	if fw.crashed {
		fw.mu.Unlock()
		return
	}
	fw.crashed = true
	close(fw.crashCh)
	workers := make([]*Worker, 0, len(fw.pipelines))
	for _, p := range fw.pipelines {
		workers = append(workers, p.w)
	}
	fw.mu.Unlock()
	for _, w := range workers {
		w.Crash()
	}
	fw.stopServe()
}

// Crashed reports whether the fault-injection hook fired.
func (fw *FleetWorker) Crashed() bool {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.crashed
}

// startPipeline launches one session's pipeline: a Worker that
// registers with the session master, runs the pipelined data plane, and
// retires itself (serve remaining buffer, deregister) when the session
// completes, drains it, or the fleet worker force-stops.
func (fw *FleetWorker) startPipeline(sessionID string) {
	sm, err := fw.ctrl.SessionMaster(sessionID)
	if err != nil {
		if fw.OnError != nil {
			fw.OnError(sessionID, err)
		}
		return
	}
	w, err := NewWorkerWithEndpoint(fw.ID, fw.Endpoint, sm, fw.wh)
	if err != nil {
		if fw.OnError != nil {
			fw.OnError(sessionID, err)
		}
		return
	}
	// All pipelines on the node share one content-addressed cache, and
	// through it the node's one column arena, so any session's decode or
	// transform output can serve any other session — cross-tenant dedup.
	// The session is the cache's tenant, weighted like the service's
	// fair-share scheduler weights it.
	if c := fw.Cache(); c != nil {
		c.RegisterTenant(sessionID, w.spec.Weight)
		w.UseCache(c, sessionID)
	}
	w.heartbeatEvery = fw.heartbeatEvery()
	p := &fleetPipeline{w: w, stop: make(chan struct{}), done: make(chan struct{})}
	fw.mu.Lock()
	if fw.crashed || fw.pipelines[sessionID] != nil {
		fw.mu.Unlock()
		_ = sm.DeregisterWorker(fw.ID)
		return
	}
	fw.pipelines[sessionID] = p
	fw.mu.Unlock()
	go func() {
		defer close(p.done)
		// A remote session master owns a long-poll goroutine from the
		// first time Run idles on it (RemoteMaster.WorkChanged); it ends
		// with the pipeline.
		if c, ok := sm.(io.Closer); ok {
			defer c.Close()
		}
		if err := w.Run(p.stop); err != nil && fw.OnError != nil {
			fw.OnError(sessionID, err)
		}
		_ = w.Retire(p.stop)
		// Before the slot frees: a re-granted session's fresh pipeline
		// registers the tenant again only after this one is gone.
		if w.cache != nil {
			w.cache.RetireTenant(sessionID)
		}
		fw.mu.Lock()
		if fw.pipelines[sessionID] == p {
			delete(fw.pipelines, sessionID)
		}
		fw.mu.Unlock()
	}()
}

// reconcile starts pipelines for newly granted sessions. Revoked
// sessions need no action here: the service already marked them
// draining at their session masters, and the pipelines retire through
// the drain protocol on their own (a re-granted session waits for the
// old pipeline to finish retiring before a fresh one starts).
func (fw *FleetWorker) reconcile(target []string) {
	for _, sessionID := range target {
		fw.mu.Lock()
		exists := fw.pipelines[sessionID] != nil
		crashed := fw.crashed
		fw.mu.Unlock()
		if exists || crashed {
			continue
		}
		fw.startPipeline(sessionID)
	}
}

// stopPipelines force-stops every pipeline and waits for them to
// retire (buffered batches are abandoned; their splits requeue).
func (fw *FleetWorker) stopPipelines() {
	fw.mu.Lock()
	ps := make([]*fleetPipeline, 0, len(fw.pipelines))
	for _, p := range fw.pipelines {
		ps = append(ps, p)
	}
	fw.mu.Unlock()
	for _, p := range ps {
		p.forceStop()
	}
	for _, p := range ps {
		<-p.done
	}
}

// pipelineCount reports live pipelines.
func (fw *FleetWorker) pipelineCount() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return len(fw.pipelines)
}

// Run drives the fleet worker: heartbeat the service, reconcile the
// assignment set, and exit once the service drains this worker and its
// pipelines have retired (deregistering from the fleet), the control
// plane disappears, stop closes (force-stop: pipelines abandon their
// buffers), or Crash fires (nothing deregisters; the service reaps).
func (fw *FleetWorker) Run(stop <-chan struct{}) error {
	// A timer re-armed after each heartbeat, not a ticker: a ticker
	// that fell behind fires again at once, and that heartbeat's
	// near-empty scaler window would overwrite the one before it.
	t := time.NewTimer(fw.heartbeatEvery())
	defer t.Stop()
	hbFails := 0
	for {
		d, err := fw.ctrl.FleetHeartbeat(fw.ID, fw.AggregateStats())
		if err != nil {
			if hbFails++; hbFails >= 3 {
				// The service no longer acknowledges us (reaped, or the
				// control connection is gone for good): abandon and exit.
				// Leases requeue service-side.
				fw.stopPipelines()
				return fmt.Errorf("dpp: fleet worker %s lost control plane: %w", fw.ID, err)
			}
		} else {
			hbFails = 0
			fw.reconcile(d.Sessions)
			if d.Drain && fw.pipelineCount() == 0 {
				return fw.ctrl.DeregisterFleetWorker(fw.ID)
			}
		}
		select {
		case <-stop:
			fw.stopPipelines()
			return fw.ctrl.DeregisterFleetWorker(fw.ID)
		case <-fw.crashCh:
			return nil
		case <-t.C:
			t.Reset(fw.heartbeatEvery())
		}
	}
}

// ListenAndServeFleetWorker binds addr, registers a fleet worker
// announcing the bound address as its shared data-plane endpoint, and
// serves every hosted pipeline on it — streams are routed to
// pipelines by the session ID in their hello. tune adjusts
// the FleetWorker (heartbeat period, cache size, error sink) before
// serving begins. The returned stop closes the listener.
func ListenAndServeFleetWorker(id, addr string, ctrl FleetControl, wh *warehouse.Warehouse, tune func(*FleetWorker)) (*FleetWorker, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	endpoint := advertiseAddr(ln.Addr())
	if err := ctrl.RegisterFleetWorker(id, endpoint); err != nil {
		ln.Close()
		return nil, nil, fmt.Errorf("dpp: fleet worker %s register: %w", id, err)
	}
	fw := &FleetWorker{
		ID:        id,
		Endpoint:  endpoint,
		ctrl:      ctrl,
		wh:        wh,
		pipelines: make(map[string]*fleetPipeline),
		crashCh:   make(chan struct{}),
	}
	if tune != nil {
		tune(fw)
	}
	fw.stopServe = serveDataPlaneOn(fw.source, ln)
	return fw, fw.stopServe, nil
}

// FleetLauncher launches fleet workers as goroutines of the calling
// process, so one process — a test, a simulation, a dppd master — can
// operate a whole fleet. Every worker serves its shared data plane on
// its own loopback TCP listener, so clients reach it with
// SessionWorkerDialer whatever the control plane. One thing selects the
// control plane: with ServiceAddr set, each worker dials the service
// (DialService: every call one ControlCall over net/rpc — the
// disaggregated deployment); with it empty, each worker calls Service
// directly.
type FleetLauncher struct {
	// ServiceAddr is the service's RPC address (ServeService).
	ServiceAddr string
	// Service is the in-process control plane, used when ServiceAddr is
	// empty.
	Service FleetControl
	// WH is the worker-side warehouse handle.
	WH *warehouse.Warehouse
	// HeartbeatEvery is each launched fleet worker's heartbeat period
	// (FleetWorker.HeartbeatEvery).
	HeartbeatEvery time.Duration
	OnError        func(id string, err error)
	// CacheBytes sizes each worker's shared batch cache (see
	// FleetWorker.CacheBytes: 0 = default, negative = disabled).
	CacheBytes int64

	mu       sync.Mutex
	workers  map[string]*FleetWorker
	launched []*FleetWorker
}

// Launch implements WorkerLauncher.
func (l *FleetLauncher) Launch(id string) (WorkerHandle, error) {
	tune := func(fw *FleetWorker) {
		fw.HeartbeatEvery = l.HeartbeatEvery
		fw.CacheBytes = l.CacheBytes
		if l.OnError != nil {
			fw.OnError = func(session string, err error) { l.OnError(id+"/"+session, err) }
		}
	}
	ctrl := l.Service
	closeCtrl := func() {} // a dialed control connection
	if l.ServiceAddr != "" {
		remote, err := DialService(l.ServiceAddr)
		if err != nil {
			return nil, err
		}
		ctrl, closeCtrl = remote, func() { remote.Close() }
	}
	fw, stopServe, err := ListenAndServeFleetWorker(id, "127.0.0.1:0", ctrl, l.WH, tune)
	if err != nil {
		closeCtrl()
		return nil, err
	}
	release := func() {
		stopServe()
		closeCtrl()
	}
	l.mu.Lock()
	if l.workers == nil {
		l.workers = make(map[string]*FleetWorker)
	}
	l.workers[id] = fw
	l.launched = append(l.launched, fw)
	l.mu.Unlock()
	h := &procHandle{id: id, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		defer release()
		if err := fw.Run(h.stop); err != nil && l.OnError != nil {
			l.OnError(id, err)
		}
		if !fw.Crashed() {
			l.mu.Lock()
			delete(l.workers, id)
			l.mu.Unlock()
		}
	}()
	return h, nil
}

// Worker returns a launched fleet worker by ID (nil when unknown or
// already retired; a crashed one stays).
func (l *FleetLauncher) Worker(id string) *FleetWorker {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.workers[id]
}

// Launched returns every fleet worker this launcher ever started,
// including retired ones. Experiments and tests read the per-node
// caches through it after the fleet has drained (a retired worker's
// cache and its counters stay intact).
func (l *FleetLauncher) Launched() []*FleetWorker {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*FleetWorker(nil), l.launched...)
}

// Crash crash-kills one launched fleet worker (FleetWorker.Crash: no
// drain, no deregistration, its listener closed mid-stream — the
// closest in-process stand-in for kill -9 on a worker node), reporting
// whether it was found.
func (l *FleetLauncher) Crash(id string) bool {
	fw := l.Worker(id)
	if fw == nil {
		return false
	}
	fw.Crash()
	return true
}
