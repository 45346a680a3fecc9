package dpp

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsi/internal/tensor"
	"dsi/internal/warehouse"
)

// These tests pin the hand-offs between a sealed partition and a trainer
// tensor as wake-ups, not timers, by counting calls: a stage that is
// waiting for an event asks nothing while nothing happens, and asks
// exactly once when something does. Each failed when the stage polled.

// idleWindow is how long a test watches a waiting stage for calls it
// must not make. The polls this replaced fired every 0.2–2 ms (and the
// evaluators' back-off at most every 50 ms), so any of them shows up
// tens of times over.
const idleWindow = 50 * time.Millisecond

// eventually fails the test unless cond turns true before a deadline
// that only a wedged wake-up can reach.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// fires reports whether ch closes before the same deadline.
func fires(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	case <-time.After(10 * time.Second):
		return false
	}
}

// pollSource is a counting BatchSource that only pops: the shape of
// every synthetic source outside this package, served on the timer.
type pollSource struct {
	mu       sync.Mutex
	queue    []*tensor.Batch
	finished bool
	calls    int
	ready    chan struct{} // used by announcingSource only
}

func (s *pollSource) TryGetBatch() (*tensor.Batch, bool, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if len(s.queue) == 0 {
		return nil, false, s.finished
	}
	b := s.queue[0]
	s.queue = s.queue[1:]
	return b, true, false
}

func (s *pollSource) announceLocked() {
	if s.ready != nil {
		close(s.ready)
		s.ready = make(chan struct{})
	}
}

func (s *pollSource) push(b *tensor.Batch) {
	s.mu.Lock()
	s.queue = append(s.queue, b)
	s.announceLocked()
	s.mu.Unlock()
}

func (s *pollSource) finish() {
	s.mu.Lock()
	s.finished = true
	s.announceLocked()
	s.mu.Unlock()
}

func (s *pollSource) Calls() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

// announcingSource is a pollSource that also announces, as Worker does.
type announcingSource struct{ pollSource }

func newAnnouncingSource() *announcingSource {
	return &announcingSource{pollSource{ready: make(chan struct{})}}
}

func (s *announcingSource) BatchReady() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ready
}

// serveAndDial puts src behind a framed listener and opens one stream.
func serveAndDial(t *testing.T, src BatchSource) *StreamWorker {
	t.Helper()
	ln, stop, err := ServeBatchSource(src, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	api, err := DialWorkerFramed(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sw := api.(*StreamWorker)
	t.Cleanup(func() { sw.Close() })
	return sw
}

// fetchOne polls a stream until it yields a batch.
func fetchOne(t *testing.T, sw *StreamWorker) *tensor.Batch {
	t.Helper()
	var got *tensor.Batch
	eventually(t, "a frame", func() bool {
		b, ok, done, err := sw.FetchBatch()
		if err != nil || done {
			t.Fatalf("stream ended early: done=%v err=%v", done, err)
		}
		got = b
		return ok
	})
	return got
}

// TestStreamServerWaitsForAnnouncement: against a source that announces,
// the stream server pops once, waits, and pops again only when told — no
// matter how long nothing happens. (The parent polled every 200 µs: ~45
// calls over the window.)
func TestStreamServerWaitsForAnnouncement(t *testing.T) {
	src := newAnnouncingSource()
	sw := serveAndDial(t, src)

	time.Sleep(idleWindow)
	if n := src.Calls(); n > 2 {
		t.Fatalf("idle stream server made %d TryGetBatch calls, want at most 2", n)
	}

	want := dataplaneTestBatch(8, 7)
	src.push(want)
	got := fetchOne(t, sw)
	if got.Rows != want.Rows {
		t.Fatalf("delivered %d rows, want %d", got.Rows, want.Rows)
	}
	got.Release()

	src.finish()
	eventually(t, "the done frame", func() bool {
		_, _, done, err := sw.FetchBatch()
		if err != nil {
			t.Fatal(err)
		}
		return done
	})
	// One empty pop at the start, the pop that delivered, the empty pop
	// after it (unless the end was announced first), and the pop that
	// learned the source was done: a call per announcement, not one more.
	if n := src.Calls(); n > 4 {
		t.Fatalf("stream server made %d TryGetBatch calls over one batch and the end, want at most 4", n)
	}
}

// TestStreamServerStillPollsPopOnlySource keeps the timer branch honest:
// a source that cannot announce (frozen bench/, the wire benchmarks) is
// still served a batch that arrives while the server waits.
func TestStreamServerStillPollsPopOnlySource(t *testing.T) {
	src := &pollSource{}
	sw := serveAndDial(t, src)
	eventually(t, "the server's first empty pop", func() bool { return src.Calls() > 0 })
	src.push(dataplaneTestBatch(8, 7))
	fetchOne(t, sw).Release()
}

// askCounter is a MasterAPI wrapper counting the two questions an idle
// evaluator asks.
type askCounter struct {
	MasterAPI
	asks atomic.Int64
}

func (c *askCounter) NextSplit(workerID string) (warehouse.Split, int, bool, bool, error) {
	c.asks.Add(1)
	return c.MasterAPI.NextSplit(workerID)
}

func (c *askCounter) Done() (bool, error) {
	c.asks.Add(1)
	return c.MasterAPI.Done()
}

// TestIdleWorkerWaitsForMaster: a worker whose own splits are consumed
// while another worker still holds the session's last one asks the
// master nothing until that split completes, then returns at once. (The
// parent re-asked on a 1→50 ms back-off ladder, and slept up to 50 ms
// past the release.)
func TestIdleWorkerWaitsForMaster(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16) // 8 splits of one 16-row batch
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	// The other worker: it leases one split and sits on it.
	if _, err := m.RegisterWorker("holder", ""); err != nil {
		t.Fatal(err)
	}
	_, held, ok, _, err := m.NextSplit("holder")
	if err != nil || !ok {
		t.Fatalf("holder lease: ok=%v err=%v", ok, err)
	}

	counted := &askCounter{MasterAPI: m}
	w, err := NewWorker("idler", counted, wh)
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan error, 1)
	go func() { ran <- w.Run(nil) }()
	rows := 0
	for rows < 7*16 {
		b, ok := getBatch(w)
		if !ok {
			t.Fatalf("worker finished after %d rows with a split still held elsewhere", rows)
		}
		rows += b.Rows
	}

	// Each evaluator still owes the NextSplit + Done that follow the last
	// local completions; once those are asked, nothing.
	time.Sleep(idleWindow)
	before := counted.asks.Load()
	time.Sleep(2 * idleWindow)
	if n := counted.asks.Load() - before; n != 0 {
		t.Fatalf("idle worker asked the master %d times in %v with nothing happening", n, 2*idleWindow)
	}
	select {
	case err := <-ran:
		t.Fatalf("Run returned (%v) while a split was still leased elsewhere", err)
	default:
	}

	if err := m.CompleteSplit("holder", held); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ran:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after the last split completed")
	}
	if _, ok := getBatch(w); ok {
		t.Fatal("worker delivered a batch beyond its seven splits")
	}
	if done, total := m.Progress(); done != 8 || total != 8 {
		t.Fatalf("progress %d/%d, want 8/8", done, total)
	}
}

// workView is how a test reaches one session's master: in process, or
// through a RemoteMaster on loopback.
type workView struct {
	name string
	open func(t *testing.T, svc *Service) MasterAPI
}

var workViews = []workView{
	{"in-process", func(t *testing.T, svc *Service) MasterAPI {
		m, err := svc.Master("job")
		if err != nil {
			t.Fatal(err)
		}
		return m
	}},
	{"remote", func(t *testing.T, svc *Service) MasterAPI {
		ln, stop, err := ServeService(svc, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stop)
		rs, err := DialService(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rs.Close() })
		api, err := rs.SessionMaster("job")
		if err != nil {
			t.Fatal(err)
		}
		rm := api.(*RemoteMaster)
		// The long-poll's first reply only learns the master's token and
		// wakes once for nothing; start from after it.
		first, _ := rm.WorkChanged()
		if !fires(first) {
			t.Fatal("remote long-poll never answered")
		}
		t.Cleanup(func() {
			// Close returns once the long-poll goroutine has exited, and
			// must end it while a poll is parked at the server, not when
			// the server's cap lets the poll go.
			start := time.Now()
			rm.Close()
			if d := time.Since(start); d > awaitWorkCap/2 {
				t.Errorf("RemoteMaster.Close took %v with a long-poll parked", d)
			}
		})
		return rm
	}},
}

// TestWorkChanged is the table of what closes MasterAPI.WorkChanged's
// channels and what does not, through both implementations.
func TestWorkChanged(t *testing.T) {
	// svc is the current subtest's service (the subtests run in turn).
	var svc *Service
	lease := func(t *testing.T, m *Master, worker string) int {
		t.Helper()
		_, id, ok, _, err := m.NextSplit(worker)
		if err != nil || !ok {
			t.Fatalf("lease: ok=%v err=%v", ok, err)
		}
		return id
	}
	cases := []struct {
		name      string
		unbounded bool
		// prepare runs before the channels are taken; act is the event.
		prepare func(t *testing.T, m *Master) int
		act     func(t *testing.T, m *Master, tbl *warehouse.Table, id int)
		wake    bool
	}{
		{name: "last CompleteSplit", wake: true,
			prepare: func(t *testing.T, m *Master) int {
				for i := 0; i < 7; i++ {
					if err := m.CompleteSplit("w", lease(t, m, "w")); err != nil {
						t.Fatal(err)
					}
				}
				return lease(t, m, "w")
			},
			act: func(t *testing.T, m *Master, _ *warehouse.Table, id int) {
				if err := m.CompleteSplit("w", id); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "non-final CompleteSplit", wake: false,
			prepare: func(t *testing.T, m *Master) int { return lease(t, m, "w") },
			act: func(t *testing.T, m *Master, _ *warehouse.Table, id int) {
				if err := m.CompleteSplit("w", id); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "Heartbeat", wake: false,
			prepare: func(t *testing.T, m *Master) int { return lease(t, m, "w") },
			act: func(t *testing.T, m *Master, _ *warehouse.Table, _ int) {
				if err := m.Heartbeat("w", WorkerStats{}); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "requeueing ReleaseSplit", wake: true,
			prepare: func(t *testing.T, m *Master) int { return lease(t, m, "w") },
			act: func(t *testing.T, m *Master, _ *warehouse.Table, id int) {
				if requeued, err := m.ReleaseSplit("w", id, "test"); err != nil || !requeued {
					t.Fatalf("release: requeued=%v err=%v", requeued, err)
				}
			}},
		{name: "poisoning ReleaseSplit", wake: true,
			prepare: func(t *testing.T, m *Master) int {
				m.spec.RetryBudget = 1
				return lease(t, m, "w")
			},
			act: func(t *testing.T, m *Master, _ *warehouse.Table, id int) {
				if requeued, err := m.ReleaseSplit("w", id, "test"); err != nil || requeued {
					t.Fatalf("release: requeued=%v err=%v, want a poisoned split", requeued, err)
				}
			}},
		{name: "requeueing DeregisterWorker", wake: true,
			prepare: func(t *testing.T, m *Master) int { return lease(t, m, "w") },
			act: func(t *testing.T, m *Master, _ *warehouse.Table, _ int) {
				if err := m.DeregisterWorker("w"); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "requeueing ReapDead", wake: true,
			prepare: func(t *testing.T, m *Master) int {
				if err := svc.RegisterFleetWorker("w", ""); err != nil {
					t.Fatal(err)
				}
				return lease(t, m, "w")
			},
			act: func(t *testing.T, m *Master, _ *warehouse.Table, _ int) {
				late := time.Now().Add(2 * svc.FleetLeaseTimeout)
				svc.mu.Lock()
				svc.now = func() time.Time { return late }
				svc.mu.Unlock()
				svc.ReapDead()
				if n := m.WorkerCount(); n != 0 {
					t.Fatalf("%d workers survived the reap, want 0", n)
				}
			}},
		{name: "Drain", wake: true,
			prepare: func(t *testing.T, m *Master) int { return 0 },
			act: func(t *testing.T, m *Master, _ *warehouse.Table, _ int) {
				if err := m.Drain("w"); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "Close", wake: true,
			prepare: func(t *testing.T, m *Master) int { return 0 },
			act:     func(t *testing.T, m *Master, _ *warehouse.Table, _ int) { m.Close() }},
		{name: "partition seal", unbounded: true, wake: true,
			prepare: func(t *testing.T, m *Master) int { return 0 },
			act: func(t *testing.T, _ *Master, tbl *warehouse.Table, _ int) {
				sealPartitionAt(t, tbl, "p1", 8, 1)
			}},
		{name: "CloseStream", unbounded: true, wake: true,
			prepare: func(t *testing.T, m *Master) int { return 0 },
			act: func(t *testing.T, _ *Master, tbl *warehouse.Table, _ int) {
				if err := tbl.CloseStream(); err != nil {
					t.Fatal(err)
				}
			}},
	}
	for _, view := range workViews {
		for _, tc := range cases {
			t.Run(view.name+"/"+tc.name, func(t *testing.T) {
				var (
					wh   *warehouse.Warehouse
					tbl  *warehouse.Table
					spec SessionSpec
				)
				if tc.unbounded {
					wh, tbl, spec = buildUnboundedFixture(t, 8)
				} else {
					wh, spec = buildFixture(t, 64, 16)
				}
				svc = NewService(wh)
				if err := svc.CreateSession("job", spec); err != nil {
					t.Fatal(err)
				}
				m, err := svc.Master("job")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.RegisterWorker("w", ""); err != nil {
					t.Fatal(err)
				}
				id := tc.prepare(t, m)
				api := view.open(t, svc)

				session, table := api.WorkChanged()
				if _, remote := api.(*RemoteMaster); !remote && (table != nil) != tc.unbounded {
					t.Fatalf("table channel present = %v on an unbounded=%v session", table != nil, tc.unbounded)
				}
				token := m.workToken()
				tc.act(t, m, tbl, id)
				if !tc.wake {
					// Neither channel closes unless the token moves (the
					// remote long-poll answers on nothing else), and in
					// process the close is synchronous.
					if now := m.workToken(); now != token {
						t.Fatalf("work token moved %d -> %d", token, now)
					}
					select {
					case <-session:
						t.Fatal("session channel closed")
					case <-table:
						t.Fatal("table channel closed")
					default:
					}
					return
				}
				woke := make(chan struct{})
				go func() {
					select {
					case <-session:
					case <-table:
					}
					close(woke)
				}()
				if !fires(woke) {
					t.Fatal("neither WorkChanged channel closed")
				}
				if m.workToken() == token {
					t.Fatal("a channel closed but the work token did not move")
				}
			})
		}
	}
}

// TestAwaitWorkToken pins the remote half's no-missed-event rule: a
// long-poll carrying a token the master has moved past — an event that
// landed after the caller's NextSplit and before its wait, with no poll
// outstanding — answers at once; one carrying the current token parks
// until the next event.
func TestAwaitWorkToken(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	svc := NewService(wh)
	if err := svc.CreateSession("job", spec); err != nil {
		t.Fatal(err)
	}
	m, _ := svc.Master("job")
	if _, err := m.RegisterWorker("w", ""); err != nil {
		t.Fatal(err)
	}
	await := func(seen int64) (int64, time.Duration) {
		t.Helper()
		start := time.Now()
		token := awaitWork(m, seen)
		return token, time.Since(start)
	}

	first, took := await(-1)
	if first != m.workToken() || took > awaitWorkCap/2 {
		t.Fatalf("first poll answered %d after %v, want %d at once", first, took, m.workToken())
	}
	// The event lands while no poll is outstanding.
	if _, _, ok, _, err := m.NextSplit("w"); err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if err := m.Drain("w"); err != nil {
		t.Fatal(err)
	}
	second, took := await(first)
	if second == first || took > awaitWorkCap/2 {
		t.Fatalf("poll with a stale token answered %d after %v, want a new token at once", second, took)
	}

	// With the current token the poll parks until the next event.
	type answer struct {
		token int64
		took  time.Duration
	}
	parked := make(chan answer, 1)
	go func() {
		token, took := await(second)
		parked <- answer{token, took}
	}()
	select {
	case a := <-parked:
		t.Fatalf("poll with the current token answered %d without an event", a.token)
	case <-time.After(idleWindow):
	}
	m.Close()
	a := <-parked
	if a.token == second || a.took > awaitWorkCap/2 {
		t.Fatalf("parked poll answered %d after %v, want a new token on the event", a.token, a.took)
	}
}

// countedConn counts the sweeps a Client makes over one connection; the
// embedded WorkerAPI still announces its arrivals to the client.
type countedConn struct {
	WorkerAPI
	fetches atomic.Int64
}

func (c *countedConn) FetchBatch() (*tensor.Batch, bool, bool, error) {
	c.fetches.Add(1)
	return c.WorkerAPI.FetchBatch()
}

// Close passes the client's removal through to the connection.
func (c *countedConn) Close() error {
	if closer, ok := c.WorkerAPI.(io.Closer); ok {
		return closer.Close()
	}
	return nil
}

// arrivalEnd is the far end of one connection TestClientNextWaitsForArrival
// drives: the client's side of it, and how to hand it a batch or end it.
type arrivalEnd struct {
	conn   *countedConn
	push   func(*tensor.Batch)
	finish func()
}

// streamEnd is a framed stream over an announcing source.
func streamEnd(t *testing.T) arrivalEnd {
	src := newAnnouncingSource()
	return arrivalEnd{&countedConn{WorkerAPI: serveAndDial(t, src)}, src.push, src.finish}
}

// idleWorkers registers n in-process workers that never run: the test
// fills their buffers (deliver) and finishes them itself.
func idleWorkers(t *testing.T, n int) []*Worker {
	t.Helper()
	wh, spec := buildFixture(t, 64, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]*Worker, n)
	for i := range ws {
		if ws[i], err = NewWorker(fmt.Sprintf("idle-%d", i), m, wh); err != nil {
			t.Fatal(err)
		}
	}
	return ws
}

// localEnd is an in-process connection (LocalWorkerAPI) to w.
func localEnd(t *testing.T, w *Worker) arrivalEnd {
	push := func(b *tensor.Batch) {
		if err := w.deliver(encodeFrame(b), nil); err != nil {
			t.Error(err)
		}
	}
	return arrivalEnd{&countedConn{WorkerAPI: LocalWorkerAPI(w)}, push, w.finish}
}

type nextResult struct {
	rows int
	ok   bool
	err  error
}

// goNext runs one Client.Next on its own goroutine.
func goNext(c *Client) <-chan nextResult {
	out := make(chan nextResult, 1)
	go func() {
		b, ok, err := c.Next()
		r := nextResult{ok: ok, err: err}
		if ok {
			r.rows = b.Rows
			b.Release()
		}
		out <- r
	}()
	return out
}

// awaitNext fails the test unless the pending Next answers.
func awaitNext(t *testing.T, what string, got <-chan nextResult) nextResult {
	t.Helper()
	select {
	case r := <-got:
		return r
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: Next never woke", what)
		return nextResult{}
	}
}

// expectNext fails the test unless the pending Next answers rows and ok.
func expectNext(t *testing.T, what string, got <-chan nextResult, rows int, ok bool) {
	t.Helper()
	if r := awaitNext(t, what, got); r.err != nil || r.ok != ok || r.rows != rows {
		t.Fatalf("%s: Next = %d rows, ok=%v, err=%v; want %d rows, ok=%v", what, r.rows, r.ok, r.err, rows, ok)
	}
}

// expectIdle lets Next settle into its wait, then watches a second
// window in which it must neither answer nor touch a connection.
func expectIdle(t *testing.T, got <-chan nextResult, sweeps func() int64) {
	t.Helper()
	time.Sleep(idleWindow)
	settled := sweeps()
	time.Sleep(idleWindow)
	if n := sweeps() - settled; n != 0 {
		t.Fatalf("waiting Next made %d FetchBatch calls with nothing arriving", n)
	}
	select {
	case r := <-got:
		t.Fatalf("Next returned (%d rows, ok=%v, err=%v) with nothing arriving", r.rows, r.ok, r.err)
	default:
	}
}

// TestClientNextWaitsForArrival: over connections that have nothing,
// Next sweeps once and then touches no connection until a batch
// arrives, a connection ends, or a rescued window lands in the orphan
// queue — over framed streams and over in-process workers alike. A Next
// that re-swept on a timer fails the idle checks.
func TestClientNextWaitsForArrival(t *testing.T) {
	for _, tc := range []struct {
		name string
		ends func(t *testing.T) (a, b arrivalEnd)
	}{
		{"stream", func(t *testing.T) (arrivalEnd, arrivalEnd) { return streamEnd(t), streamEnd(t) }},
		{"local", func(t *testing.T) (arrivalEnd, arrivalEnd) {
			ws := idleWorkers(t, 2)
			return localEnd(t, ws[0]), localEnd(t, ws[1])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.ends(t)
			client, err := NewClient([]WorkerAPI{a.conn, b.conn}, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			sweeps := func() int64 { return a.conn.fetches.Load() + b.conn.fetches.Load() }

			got := goNext(client)
			expectIdle(t, got, sweeps)
			a.push(dataplaneTestBatch(8, 1))
			expectNext(t, "a batch", got, 8, true)

			// A connection's end wakes Next; the other is still live, so
			// it sweeps and goes back to waiting.
			got = goNext(client)
			expectIdle(t, got, sweeps)
			before := sweeps()
			a.finish()
			eventually(t, "a sweep after a connection ended", func() bool { return sweeps() > before })
			expectIdle(t, got, sweeps)

			// A rescued window landing in the orphan queue wakes it too.
			srcC := newAnnouncingSource()
			c := serveAndDial(t, srcC)
			srcC.push(dataplaneTestBatch(4, 2))
			eventually(t, "the frame to reach the spare stream's window", func() bool { return len(c.batches) == 1 })
			client.mu.Lock()
			client.detached++
			client.mu.Unlock()
			go client.reapDetached(c, c)
			expectNext(t, "a landed orphan", got, 4, true)

			got = goNext(client)
			expectIdle(t, got, sweeps)
			b.finish()
			expectNext(t, "the last connection's end", got, 0, false)
		})
	}

	// A crashed in-process worker wakes a frozen client's Next with the
	// error, and dropping the connection takes its slot off the worker.
	t.Run("local crash", func(t *testing.T) {
		w := idleWorkers(t, 1)[0]
		conn := &countedConn{WorkerAPI: LocalWorkerAPI(w)}
		client, err := NewClient([]WorkerAPI{conn}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		slots := func() int {
			w.mu.Lock()
			defer w.mu.Unlock()
			return len(w.wakes)
		}
		if n := slots(); n != 1 {
			t.Fatalf("worker holds %d client slots, want 1", n)
		}
		got := goNext(client)
		expectIdle(t, got, conn.fetches.Load)
		w.Crash()
		if r := awaitNext(t, "a crash", got); r.err == nil {
			t.Fatalf("Next over a crashed worker = %d rows, ok=%v; want an error", r.rows, r.ok)
		}
		client.mu.Lock()
		client.removeLocked("static-0")
		client.mu.Unlock()
		if n := slots(); n != 0 {
			t.Fatalf("worker holds %d client slots after the connection was removed, want 0", n)
		}
	})
}
