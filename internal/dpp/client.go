package dpp

import (
	"fmt"
	"io"
	"sync"
	"time"

	"dsi/internal/tensor"
)

// WorkerAPI is the data-plane surface Clients depend on: a single RPC
// that returns a batch of tensors from the Worker's buffer (§3.2.1),
// and the announcement that tells a waiting Client to ask again.
type WorkerAPI interface {
	// FetchBatch pops one batch. ok=false with done=true means the
	// worker has finished and drained; ok=false with done=false means
	// temporarily empty.
	FetchBatch() (b *tensor.Batch, ok bool, done bool, err error)
	// announceTo registers the client's one-slot wake channel: the
	// connection pings it whenever FetchBatch may answer differently (a
	// batch arrived, the worker finished or crashed, the stream ended).
	announceTo(ch chan<- struct{})
}

// localWorker adapts *Worker to WorkerAPI. wake is the client slot it
// registered with the worker; Close unregisters it.
type localWorker struct {
	w    *Worker
	wake chan<- struct{}
}

// announceTo implements WorkerAPI: the worker pings ch from
// signalLocked.
func (l *localWorker) announceTo(ch chan<- struct{}) {
	l.wake = ch
	l.w.mu.Lock()
	l.w.wakes[l] = struct{}{}
	l.w.mu.Unlock()
}

// Close implements io.Closer: a client dropping the connection stops
// taking the worker's pings.
func (l *localWorker) Close() error {
	l.w.mu.Lock()
	delete(l.w.wakes, l)
	l.w.mu.Unlock()
	return nil
}

// FetchBatch implements WorkerAPI. An in-process pop is irrevocable, so
// it acks the frame's split ledger immediately, then decodes the frame
// as a stream client would: in process and over TCP a trainer receives
// the same bytes. A crashed worker errors like a dead TCP peer would, so
// fault-injection tests exercise the same client recovery path
// in-process and over the wire.
func (l *localWorker) FetchBatch() (*tensor.Batch, bool, bool, error) {
	if l.w.Crashed() {
		return nil, false, false, fmt.Errorf("dpp: worker %s crashed", l.w.ID)
	}
	f, ok, done := l.w.tryGetFrame()
	if !ok {
		return nil, false, done, nil
	}
	l.w.ackConsumed(f)
	b, err := f.decode()
	f.free()
	return b, err == nil, false, err
}

// LocalWorkerAPI wraps an in-process worker as a WorkerAPI.
func LocalWorkerAPI(w *Worker) WorkerAPI { return &localWorker{w: w} }

// WorkerDialer opens a data-plane connection to one resolved worker.
// SessionWorkerDialer is the TCP implementation; an in-process
// FleetLauncher's SessionDialer looks the worker up by ID.
type WorkerDialer func(ep WorkerEndpoint) (WorkerAPI, error)

// drainable is implemented by transports that prefetch batches ahead of
// consumption (the framed stream): when the client drops such a
// connection it first rescues the already-received window, so streamed
// batches popped from a worker's buffer are never lost to a membership
// change.
type drainable interface {
	Drain() []*tensor.Batch
}

// workerConn is one live client→worker connection.
type workerConn struct {
	id  string
	api WorkerAPI
}

// Client runs on each training node and exposes the hook the training
// loop calls to obtain preprocessed tensors. It routes fetches across a
// capped subset of workers with partitioned round-robin routing, so
// client and worker connection counts stay bounded as both sides scale
// (§3.2.1).
//
// Two membership modes exist. NewClient freezes the worker set at
// construction (the in-process simulation default). NewSessionClient
// resolves membership from the master instead: the connection set is
// periodically refreshed against ListWorkers, so workers launched by the
// auto-scaler are picked up and drained workers are dropped mid-session
// — but only once they deregister, which they do only after their buffer
// has been fully consumed, so elasticity never loses rows.
type Client struct {
	mu    sync.Mutex
	conns []workerConn
	next  int

	maxConn     int
	clientIndex int

	// Dynamic-membership state (nil master means a frozen worker set).
	master      MasterAPI
	dial        WorkerDialer
	lastRefresh time.Time
	// members is the size of the master's worker membership at the last
	// Refresh. The session is declared done for this client only once
	// membership has emptied: every worker deregisters only after its
	// buffer is fully consumed, so a nonzero membership — a worker this
	// client failed to dial, a broken connection pending re-dial, or a
	// partition another capped client is responsible for — means rows
	// may still be undelivered somewhere.
	members int
	// sawDone records that the master reported the session complete. A
	// master that becomes unreachable afterwards (its process retired)
	// ends the session gracefully instead of erroring the trainer.
	sawDone bool

	// RefreshEvery throttles membership refreshes during stalls
	// (default 2ms). Only meaningful for master-resolved clients.
	RefreshEvery time.Duration

	// seen is the exactly-once deduplication ledger, keyed by split:
	// the (Split, Seq) provenance of every tagged batch this client has
	// handed to the trainer. When a worker crashes after a client
	// consumed part of a split, the master requeues the lease and
	// another worker re-runs the whole split; the re-delivered overlap
	// is dropped here (a split's batch row ranges are deterministic, so
	// equal tags name equal rows). Once a split has been consumed in full (every
	// seq up to the batch tags' SeqCount), its per-seq set collapses to
	// a complete marker, so the ledger stays O(splits), not O(batches),
	// over a long session. The ledger assumes one logical consumer per
	// session — the paper's model, where a session feeds one training
	// job.
	seen map[int32]*splitSeen

	// orphans holds batches rescued from dropped streaming connections
	// (see drainable); they are served before any worker is swept so
	// exactly-once delivery survives membership churn. detached counts
	// rescues still in flight: dropping a streamed connection drains it
	// on a side goroutine (Drain can wait out a network round trip, far
	// too long to hold the client lock), and the session is not declared
	// done for this client until every rescue has landed.
	orphans  []*tensor.Batch
	detached int

	// wake is the one-slot channel Next waits on between sweeps. Every
	// connection pings it (WorkerAPI.announceTo): a framed stream when a
	// frame lands or the stream ends, an in-process worker when a batch
	// enters its buffer or it finishes or crashes. reapDetached pings it
	// when a rescue lands. Pings sent while a sweep is running stay in
	// the slot, so no arrival is missed.
	wake chan struct{}

	// BatchesFetched counts delivered batches.
	BatchesFetched int64
	// BytesFetched counts delivered tensor bytes.
	BytesFetched int64
}

// NewClient builds a client over a frozen worker set, connecting to at
// most maxConnections of them (0 means all). The partition is chosen by
// clientIndex so different trainers spread across workers.
func NewClient(workers []WorkerAPI, maxConnections, clientIndex int) (*Client, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("dpp: client needs at least one worker")
	}
	if maxConnections <= 0 || maxConnections > len(workers) {
		maxConnections = len(workers)
	}
	c := &Client{maxConn: maxConnections, clientIndex: clientIndex, wake: make(chan struct{}, 1)}
	for i := 0; i < maxConnections; i++ {
		idx := (clientIndex*maxConnections + i) % len(workers)
		c.addLocked(fmt.Sprintf("static-%d", idx), workers[idx])
	}
	return c, nil
}

// NewTenantClient builds a client for one session of a multi-tenant
// service: the session's control plane comes from
// ctrl.SessionMaster(sessionID) and dial must be bound to the same
// session (SessionWorkerDialer, or a fleet launcher's SessionDialer) so
// the data plane lands on that session's pipelines.
func NewTenantClient(ctrl FleetControl, sessionID string, dial WorkerDialer, maxConnections, clientIndex int) (*Client, error) {
	if ctrl == nil {
		return nil, fmt.Errorf("dpp: tenant client needs a service control plane")
	}
	master, err := ctrl.SessionMaster(sessionID)
	if err != nil {
		return nil, err
	}
	return NewSessionClient(master, dial, maxConnections, clientIndex)
}

// NewSessionClient builds a client whose worker membership is resolved
// from the master: the initial set comes from ListWorkers and is
// re-resolved as the pool grows and shrinks. A session client may start
// with zero workers (the orchestrator launches the pool asynchronously);
// Next blocks until workers appear or the session completes.
func NewSessionClient(master MasterAPI, dial WorkerDialer, maxConnections, clientIndex int) (*Client, error) {
	if master == nil || dial == nil {
		return nil, fmt.Errorf("dpp: session client needs a master and a dialer")
	}
	c := &Client{master: master, dial: dial, maxConn: maxConnections, clientIndex: clientIndex, wake: make(chan struct{}, 1)}
	if err := c.Refresh(); err != nil {
		return nil, err
	}
	return c, nil
}

// AddWorker attaches a worker connection, reporting whether it was
// added (false when the ID is already connected).
func (c *Client) AddWorker(id string, api WorkerAPI) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addLocked(id, api)
}

func (c *Client) addLocked(id string, api WorkerAPI) bool {
	for _, conn := range c.conns {
		if conn.id == id {
			return false
		}
	}
	c.conns = append(c.conns, workerConn{id: id, api: api})
	api.announceTo(c.wake)
	// Whatever the connection already holds arrived unannounced.
	ping(c.wake)
	return true
}

// removeLocked detaches a worker connection (closing it when the
// transport supports Close) and reports whether it was connected.
// Callers hold c.mu.
func (c *Client) removeLocked(id string) bool {
	for i, conn := range c.conns {
		if conn.id != id {
			continue
		}
		if d, ok := conn.api.(drainable); ok {
			// Rescue the prefetched window off the lock; close after the
			// drain so in-flight frames can still be collected.
			c.detached++
			go c.reapDetached(conn.api, d)
		} else if closer, ok := conn.api.(io.Closer); ok {
			closer.Close()
		}
		c.conns = append(c.conns[:i], c.conns[i+1:]...)
		if c.next > i {
			c.next--
		}
		if len(c.conns) > 0 {
			c.next %= len(c.conns)
		} else {
			c.next = 0
		}
		return true
	}
	return false
}

// reapDetached drains one dropped streaming connection outside the
// client lock and lands the rescued window in the orphan queue.
func (c *Client) reapDetached(api WorkerAPI, d drainable) {
	batches := d.Drain()
	if closer, ok := api.(io.Closer); ok {
		closer.Close()
	}
	c.mu.Lock()
	c.orphans = append(c.orphans, batches...)
	c.detached--
	c.mu.Unlock()
	ping(c.wake)
}

// Refresh re-resolves worker membership from the master and rebalances
// connections: deregistered workers are dropped (safe — workers
// deregister only after their buffer is fully consumed), new workers
// are dialed, and the partitioned connection cap is re-applied over the
// master's ID-sorted membership so sibling clients stay spread as the
// pool resizes. Dialing happens outside the client lock (a slow or dead
// endpoint must not block concurrent TryNext callers), and a failed
// dial skips the worker until a later refresh: a dead worker is the
// service's to reap and its leases' rows are requeued at the master,
// so the client never turns one worker's death into session failure.
// Only a failure to reach the master itself is returned.
// Frozen-membership clients treat Refresh as a no-op.
func (c *Client) Refresh() error {
	if c.master == nil {
		return nil
	}
	eps, err := c.master.ListWorkers()
	if err != nil {
		return err
	}
	target := eps
	if c.maxConn > 0 && len(eps) > c.maxConn {
		target = make([]WorkerEndpoint, 0, c.maxConn)
		for i := 0; i < c.maxConn; i++ {
			target = append(target, eps[(c.clientIndex*c.maxConn+i)%len(eps)])
		}
	}
	want := make(map[string]bool, len(target))
	for _, ep := range target {
		want[ep.ID] = true
	}
	c.mu.Lock()
	c.lastRefresh = time.Now()
	have := make(map[string]bool, len(c.conns))
	for _, conn := range append([]workerConn(nil), c.conns...) {
		if !want[conn.id] {
			c.removeLocked(conn.id)
			continue
		}
		have[conn.id] = true
	}
	c.mu.Unlock()

	for _, ep := range target {
		if have[ep.ID] {
			continue
		}
		api, err := c.dial(ep)
		if err != nil {
			continue
		}
		if !c.AddWorker(ep.ID, api) {
			// A concurrent refresh won the race; release the spare. A
			// streamed spare may already hold pushed batches (popped from
			// the worker's buffer, disjoint from the winner's stream), so
			// it is drained into the orphan queue like a removal, not
			// merely closed.
			if d, ok := api.(drainable); ok {
				c.mu.Lock()
				c.detached++
				c.mu.Unlock()
				go c.reapDetached(api, d)
			} else if closer, ok := api.(io.Closer); ok {
				closer.Close()
			}
		}
	}
	c.mu.Lock()
	c.members = len(eps)
	c.mu.Unlock()
	return nil
}

// refreshEvery is the effective membership refresh throttle.
func (c *Client) refreshEvery() time.Duration {
	if c.RefreshEvery > 0 {
		return c.RefreshEvery
	}
	return 2 * time.Millisecond
}

// masterGone decides how an unreachable master ends the session: once
// the master has reported completion and this client's connections are
// drained, a master that retired (its process exiting closes the RPC
// connection) is a graceful end, not an error.
func (c *Client) masterGone(allDone bool) bool {
	if !allDone {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sawDone
}

// masterErr suppresses the master error when masterGone declares a
// graceful end.
func (c *Client) masterErr(allDone bool, err error) error {
	if c.masterGone(allDone) {
		return nil
	}
	return err
}

// sweepLocked tries each connected worker once starting at the rotation
// cursor. allDone reports whether every connected worker has finished
// and drained (vacuously true with no connections). For master-resolved
// clients a fetch error drops the broken connection instead of failing
// the sweep: a live worker is re-dialed on a later refresh, and a dead
// one is reaped by the service and deregistered at the master, which
// requeues every lease whose batches were not fully consumed — splits complete only on
// consumption, so a crashed worker's undelivered rows re-run elsewhere
// and admitLocked drops the redelivered overlap; one worker's failure
// must not become session failure. Frozen worker sets have no recovery
// path, so their fetch errors still propagate.
func (c *Client) sweepLocked() (b *tensor.Batch, ok, allDone bool, err error) {
	for len(c.orphans) > 0 {
		b = c.orphans[0]
		c.orphans = c.orphans[1:]
		if !c.admitLocked(b) {
			b.Release()
			continue
		}
		c.BatchesFetched++
		c.BytesFetched += b.SizeBytes()
		return b, true, false, nil
	}
	allDone = true
	var broken []string
	for i := 0; i < len(c.conns); i++ {
		w := c.conns[(c.next+i)%len(c.conns)]
		for {
			b, ok, wDone, err := w.api.FetchBatch()
			if err != nil {
				if c.master == nil {
					return nil, false, false, err
				}
				broken = append(broken, w.id)
				allDone = false // its buffer may hold rows; resolve via refresh
				break
			}
			if !ok {
				if !wDone {
					allDone = false
				}
				break
			}
			if !c.admitLocked(b) {
				// A re-run redelivered rows this client already handed
				// to the trainer; drop the duplicate and keep sweeping
				// the same worker for fresh batches.
				b.Release()
				continue
			}
			c.next = (c.next + i + 1) % len(c.conns)
			c.BatchesFetched++
			c.BytesFetched += b.SizeBytes()
			return b, true, false, nil
		}
	}
	for _, id := range broken {
		c.removeLocked(id)
	}
	// A rescue still in flight may land orphans; the sweep cannot be
	// "all done" until every detached drain has resolved.
	return nil, false, allDone && c.detached == 0, nil
}

// splitSeen is one split's dedup record: the seqs consumed so far, or
// — once every seq up to the split's SeqCount has been consumed — a
// compact complete marker (nil seqs).
type splitSeen struct {
	seqs  map[int32]struct{}
	count int32
}

// admitLocked records a tagged batch's (Split, Seq) provenance in the
// dedup ledger, reporting false when the client already consumed it.
// Untagged batches (synthetic sources) are always admitted.
func (c *Client) admitLocked(b *tensor.Batch) bool {
	if b.Split == 0 {
		return true
	}
	sl := c.seen[b.Split]
	if sl == nil {
		sl = &splitSeen{seqs: make(map[int32]struct{})}
		if c.seen == nil {
			c.seen = make(map[int32]*splitSeen)
		}
		c.seen[b.Split] = sl
	}
	if sl.seqs == nil {
		// Split already consumed in full; everything further is a
		// re-delivery.
		return false
	}
	if _, dup := sl.seqs[b.Seq]; dup {
		return false
	}
	sl.seqs[b.Seq] = struct{}{}
	if b.SeqCount > 0 {
		sl.count = b.SeqCount
	}
	if sl.count > 0 && int32(len(sl.seqs)) >= sl.count {
		sl.seqs = nil // compact: the complete marker is all that's needed
	}
	return true
}

// Next returns the next tensor batch. It returns ok=false only when the
// session has no more data for this client: for a frozen worker set,
// when every connected worker has finished and drained; for a
// master-resolved client, when additionally the master reports the
// session complete and membership has emptied. Between sweeps it waits,
// off the client lock, for an arrival: a batch reaching a stream's
// window or an in-process worker's buffer, a worker finishing or
// crashing, a stream ending, or a rescued window landing in the orphan
// queue. The one timer is a master-resolved client's RefreshEvery, the
// cadence at which it re-resolves membership (control plane, not a
// hand-off). Next has one waiter — the session's one logical consumer,
// the same assumption the dedup ledger makes; TryNext stays callable
// from any goroutine.
func (c *Client) Next() (*tensor.Batch, bool, error) {
	for {
		b, ok, done, err := c.TryNext()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return b, true, nil
		}
		if done {
			return nil, false, nil
		}
		var refresh <-chan time.Time // nil: wait for an arrival alone
		if c.master != nil {
			refresh = time.After(c.refreshEvery())
		}
		select {
		case <-c.wake:
		case <-refresh:
		}
	}
}

// TryNext sweeps the connected workers once without blocking on data.
// ok=false with done=false means no batch was ready (a data stall from
// the trainer's point of view); done=true means the session has no more
// data for this client. Master-resolved clients piggyback a throttled
// membership refresh on stalls, which is how scaled-up workers join and
// drained ones leave the rotation mid-session.
func (c *Client) TryNext() (b *tensor.Batch, ok, done bool, err error) {
	c.mu.Lock()
	b, ok, allDone, err := c.sweepLocked()
	if err != nil || ok {
		c.mu.Unlock()
		return b, ok, false, err
	}
	if c.master == nil {
		c.mu.Unlock()
		return nil, false, allDone, nil
	}
	stale := time.Since(c.lastRefresh) >= c.refreshEvery()
	c.mu.Unlock()

	if !stale {
		// Throttled: whether merely starved or (vacuously) drained, wait
		// out the refresh window rather than hammering the master with
		// membership and completion RPCs on every poll.
		return nil, false, false, nil
	}
	if err := c.Refresh(); err != nil {
		return nil, false, c.masterGone(allDone), c.masterErr(allDone, err)
	}
	if !allDone {
		return nil, false, false, nil
	}
	// Every connection this client held was drained at sweep time. The
	// session is over for us only if the master agrees and membership
	// has emptied — workers deregister only after their buffers are
	// fully consumed, so any remaining member (unreachable, broken, or
	// another capped client's partition) may still hold undelivered
	// rows.
	sessionDone, err := c.master.Done()
	if err != nil {
		return nil, false, c.masterGone(allDone), c.masterErr(allDone, err)
	}
	if !sessionDone {
		return nil, false, false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sawDone = true
	if c.members > 0 || c.detached > 0 {
		// A detached rescue still in flight may yet land orphans; ending
		// the session now would drop them.
		return nil, false, false, nil
	}
	b, ok, allDone, err = c.sweepLocked()
	if err != nil || ok {
		return b, ok, false, err
	}
	return nil, false, allDone, nil
}
