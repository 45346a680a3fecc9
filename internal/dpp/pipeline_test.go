package dpp

import (
	"errors"
	"fmt"
	"net/rpc"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsi/internal/schema"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

// parityFixture is buildFixture with a graph wide enough to exercise
// most compiled kernels (dense chains, truncation, hashing, a cross, an
// n-gram, bucketize + map).
func parityFixture(t *testing.T) (*warehouse.Warehouse, SessionSpec) {
	wh, spec := buildFixture(t, 64, 16) // 8 splits, 128 rows
	spec.Ops = transforms.StandardGraphTruncated(
		[]schema.FeatureID{1, 2}, []schema.FeatureID{5, 6}, 3, 1000, 3).Ops()
	spec.DenseOut = []schema.FeatureID{1000, 1001}
	spec.SparseOut = []schema.FeatureID{1003, 1007, 1009, 1011}
	spec.Pipeline = PipelineOptions{Prefetchers: 3, TransformParallelism: 3}
	return wh, spec
}

// delivered is what one way of running a session handed to its sink.
type delivered struct {
	rows, batches int
	sum           *tensor.ContentSum
}

func (d delivered) equal(o delivered) bool {
	return d.rows == o.rows && d.batches == o.batches && d.sum.Equal(o.sum)
}

// TestRunMatchesSingleSplitLoopAndInterpreter holds Worker.Run's
// pipeline to two references over the same session: the synchronous
// ProcessOneSplit loop (same plan, no stages), and an oracle outside
// Worker that runs the session's ops through the transforms.Graph.Run
// interpreter over ReadSplitBatchCached reads. All three must deliver
// the same rows, batch count and tensor content.
func TestRunMatchesSingleSplitLoopAndInterpreter(t *testing.T) {
	viaWorker := func(drive func(*Worker) error) delivered {
		wh, spec := parityFixture(t)
		m, err := NewMaster(wh, spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker("w", m, wh)
		if err != nil {
			t.Fatal(err)
		}
		got := delivered{sum: tensor.NewContentSum()}
		w.Sink = func(b *blob) { // one goroutine at a time, see Worker.Sink
			got.rows += b.Rows
			got.batches++
			got.sum.AddBatch(b)
		}
		if err := drive(w); err != nil {
			t.Fatal(err)
		}
		if done, _ := m.Done(); !done {
			t.Fatal("session not done")
		}
		return got
	}
	run := viaWorker(func(w *Worker) error { return w.Run(nil) })
	loop := viaWorker(func(w *Worker) error {
		for {
			if ok, err := w.ProcessOneSplit(); err != nil || !ok {
				return err
			}
		}
	})

	wh, spec := parityFixture(t)
	graph, err := spec.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RegisterWorker("oracle", ""); err != nil {
		t.Fatal(err)
	}
	interp := delivered{sum: tensor.NewContentSum()}
	for {
		split, _, ok, _, err := m.NextSplit("oracle")
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		batch, _, err := wh.ReadSplitBatchCached(split, spec.Projection(), spec.Read)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := graph.Run(batch); err != nil {
			t.Fatal(err)
		}
		full, err := tensor.Materialize(batch, spec.DenseOut, spec.SparseOut)
		if err != nil {
			t.Fatal(err)
		}
		interp.batches += (full.Rows + spec.BatchSize - 1) / spec.BatchSize
		interp.rows += full.Rows
		interp.sum.AddBatch(full)
	}

	if interp.rows != 128 || interp.batches != 8 {
		t.Fatalf("oracle saw %d rows in %d batches, want 128 in 8", interp.rows, interp.batches)
	}
	if !run.equal(interp) {
		t.Fatalf("Run delivered %d rows / %d batches, interpreter oracle %d / %d, content equal: %v",
			run.rows, run.batches, interp.rows, interp.batches, run.sum.Equal(interp.sum))
	}
	if !loop.equal(interp) {
		t.Fatalf("ProcessOneSplit loop delivered %d rows / %d batches, interpreter oracle %d / %d, content equal: %v",
			loop.rows, loop.batches, interp.rows, interp.batches, loop.sum.Equal(interp.sum))
	}
}

// heartbeatFaultMaster answers its first fail Heartbeat calls with err
// instead of forwarding them.
type heartbeatFaultMaster struct {
	MasterAPI
	err  error
	fail atomic.Int32
}

func (m *heartbeatFaultMaster) Heartbeat(workerID string, stats WorkerStats) error {
	if m.fail.Add(-1) >= 0 {
		return m.err
	}
	return m.MasterAPI.Heartbeat(workerID, stats)
}

// TestRunHeartbeatErrors holds the deliver loop's per-split heartbeat
// to heartbeatLoop's rule: a transport failure is retried with the next
// split (membership and leases are intact at the master), only a master
// that disowns the worker ends the run.
func TestRunHeartbeatErrors(t *testing.T) {
	for _, tc := range []struct {
		name     string
		err      error
		wantRows int // -1: Run must fail with err before finishing
	}{
		{"transport", errors.New("read tcp 127.0.0.1:7170: connection reset by peer"), 128},
		{"disowned", errUnregistered("w"), -1},
		// net/rpc hands the caller the handler's error as its text.
		{"disowned over rpc", rpc.ServerError(errUnregistered("w").Error()), -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wh, spec := buildFixture(t, 64, 16) // 8 splits, 128 rows
			m, err := NewMaster(wh, spec)
			if err != nil {
				t.Fatal(err)
			}
			fm := &heartbeatFaultMaster{MasterAPI: m, err: tc.err}
			fm.fail.Store(2)
			w, err := NewWorker("w", fm, wh)
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			w.Sink = func(b *blob) { rows += b.Rows }
			err = w.Run(nil)
			if tc.wantRows < 0 {
				if !errors.Is(err, tc.err) {
					t.Fatalf("Run = %v, want the disowning heartbeat error", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Run = %v after two transient heartbeat errors, want nil", err)
			}
			if done, _ := m.Done(); !done || rows != tc.wantRows || fm.fail.Load() > 0 {
				t.Fatalf("done %v, %d rows (want %d), %d injected failures left", done, rows, tc.wantRows, fm.fail.Load())
			}
		})
	}
}

// TestNewWorkerFailsOnUncompilableGraph: with the plan as the only
// executor, a graph the compiler rejects fails worker construction with
// the compile error instead of running interpreted.
func TestNewWorkerFailsOnUncompilableGraph(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	spec.Ops = []transforms.Op{&transforms.SigridHash{In: 5, Out: 100, Salt: 1, MaxValue: 0}}
	spec.SparseOut = []schema.FeatureID{100}
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewWorker("w", m, wh)
	if err == nil || !strings.Contains(err.Error(), "SigridHash needs positive MaxValue") {
		t.Fatalf("NewWorker error = %v, want the plan compile error", err)
	}
}

// getBatch pops the worker's next buffered batch as a direct local
// consumer would (the pop counts as consumed for the split ledger),
// waiting for one; ok=false once the worker has finished and drained.
func getBatch(w *Worker) (*tensor.Batch, bool) {
	for {
		ready := w.BatchReady()
		if b, ok, done := w.TryGetBatch(); ok || done {
			w.ackConsumed(b)
			return b, ok
		}
		<-ready
	}
}

// TestPipelinedSessionConcurrentStats runs a parallel pipeline while
// hammering Stats/Report/Buffered from other goroutines; run under
// -race this is the pipeline's data-race check.
func TestPipelinedSessionConcurrentStats(t *testing.T) {
	wh, spec := buildFixture(t, 96, 8) // 24 splits
	spec.Pipeline = PipelineOptions{Prefetchers: 4, TransformParallelism: 4, PrefetchDepth: 6}
	spec.BufferDepth = 4
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker("w", m, wh)
	if err != nil {
		t.Fatal(err)
	}

	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	for i := 0; i < 3; i++ {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			for {
				select {
				case <-stopPoll:
					return
				default:
				}
				_ = w.Stats()
				_ = w.Report()
				_ = w.Buffered()
			}
		}()
	}

	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(nil) }()

	rows := 0
	for {
		b, ok := getBatch(w)
		if !ok {
			break
		}
		rows += b.Rows
	}
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	close(stopPoll)
	pollWG.Wait()

	if rows != 192 {
		t.Fatalf("consumed %d rows, want 192", rows)
	}
	rep := w.Report()
	if rep.SplitsDone != 24 {
		t.Fatalf("SplitsDone = %d, want 24", rep.SplitsDone)
	}
	if rep.FetchBusy <= 0 || rep.DecodeBusy <= 0 || rep.TransformBusy <= 0 || rep.DeliverBusy <= 0 {
		t.Fatalf("report stage busy not populated: %+v", rep)
	}
}

// TestPipelinedCancellationLeaksNoGoroutines stops a pipelined session
// mid-flight and asserts every stage goroutine exits.
func TestPipelinedCancellationLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for iter := 0; iter < 3; iter++ {
		wh, spec := buildFixture(t, 128, 8) // 32 splits
		spec.Pipeline = PipelineOptions{Prefetchers: 4, TransformParallelism: 4}
		spec.BufferDepth = 2 // force backpressure so stages are mid-flight
		m, err := NewMaster(wh, spec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(fmt.Sprintf("w%d", iter), m, wh)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		runErr := make(chan error, 1)
		go func() { runErr <- w.Run(stop) }()

		// Take a couple of batches so the pipeline is demonstrably
		// running, then cancel with the buffer full and stages blocked.
		for i := 0; i < 2; i++ {
			if _, ok := getBatch(w); !ok {
				t.Fatal("worker finished before cancellation")
			}
		}
		close(stop)
		select {
		case err := <-runErr:
			if err != nil {
				t.Fatalf("stopped run returned error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Run did not return after stop")
		}
	}
	// Goroutine counts settle asynchronously; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before %d, after %d", before, runtime.NumGoroutine())
}

// TestPipelineBackpressureBoundsBufferedBytes checks MaxBufferedBytes
// actually bounds resident tensor memory (paper: bounded buffering
// avoids OOM).
func TestPipelineBackpressureBoundsBufferedBytes(t *testing.T) {
	wh, spec := buildFixture(t, 128, 8)
	spec.BatchSize = 4
	spec.BufferDepth = 1 << 20 // count bound effectively off
	spec.Pipeline = PipelineOptions{Prefetchers: 4, TransformParallelism: 4, MaxBufferedBytes: 8 << 10}
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker("w", m, wh)
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(nil) }()

	var maxBatch int64
	rows := 0
	for {
		b, ok := getBatch(w)
		if !ok {
			break
		}
		if s := b.SizeBytes(); s > maxBatch {
			maxBatch = s
		}
		rows += b.Rows
		// A slow trainer: give the pipeline time to overfill if it can.
		time.Sleep(100 * time.Microsecond)
	}
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if rows != 256 {
		t.Fatalf("rows = %d, want 256", rows)
	}
	peak := w.Report().ResidentPeak
	// The bound may be exceeded by at most one batch (an empty buffer
	// always admits a batch so delivery cannot deadlock).
	if limit := spec.Pipeline.MaxBufferedBytes + maxBatch; peak > limit {
		t.Fatalf("ResidentPeak %d exceeds bound %d (max batch %d)", peak, limit, maxBatch)
	}
}

// TestPipelinedWorkersShareSession runs several pipelined workers
// against one master with concurrent autoscaler-style stat polling.
func TestPipelinedWorkersShareSession(t *testing.T) {
	wh, spec := buildFixture(t, 96, 8)
	spec.Pipeline = PipelineOptions{Prefetchers: 2, TransformParallelism: 2}
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	var workers []*Worker
	var apis []WorkerAPI
	for i := 0; i < 3; i++ {
		w, err := NewWorker(fmt.Sprintf("pw%d", i), m, wh)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		apis = append(apis, LocalWorkerAPI(w))
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			if err := w.Run(nil); err != nil {
				t.Error(err)
			}
		}(w)
	}
	var polls atomic.Int64
	pollStop := make(chan struct{})
	go func() {
		for {
			select {
			case <-pollStop:
				return
			default:
				_ = m.WorkerStatsSnapshot()
				polls.Add(1)
			}
		}
	}()

	client, err := NewClient(apis, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
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
	wg.Wait()
	close(pollStop)
	if rows != 192 {
		t.Fatalf("rows = %d, want 192", rows)
	}
	if polls.Load() == 0 {
		t.Fatal("stat poller never ran")
	}
}

// TestHeartbeatRenewsInflightLeases covers the stalled-trainer case: a
// pipelined worker holds several leases for longer than the lease
// timeout while delivery is blocked, but as long as it heartbeats the
// master must not requeue its splits (which would deliver rows twice).
func TestHeartbeatRenewsInflightLeases(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	m.now = func() time.Time { return now }
	m.LeaseTimeout = 10 * time.Second

	if _, err := m.RegisterWorker("w1", ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, ok, _, err := m.NextSplit("w1"); err != nil || !ok {
			t.Fatal("lease failed")
		}
	}
	// Leases age past the timeout, but heartbeats keep arriving.
	for i := 0; i < 4; i++ {
		now = now.Add(6 * time.Second)
		if err := m.Heartbeat("w1", WorkerStats{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.ReapDead(); got != 0 {
		t.Fatalf("ReapDead requeued %d leases of a live, heartbeating worker", got)
	}
	// A live-but-wedged worker cannot hold a lease past maxLeaseAgeFactor lease timeouts:
	// keep heartbeating without completing anything until the absolute
	// cap (10x timeout from grant) is exceeded.
	for i := 0; i < 16; i++ {
		now = now.Add(6 * time.Second)
		if err := m.Heartbeat("w1", WorkerStats{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.ReapDead(); got != 3 {
		t.Fatalf("ReapDead = %d for wedged worker past the lease age cap, want 3", got)
	}
	// Once heartbeats stop, remaining leases are reclaimed too.
	if _, _, ok, _, err := m.NextSplit("w1"); err != nil || !ok {
		t.Fatal("re-lease failed")
	}
	now = now.Add(11 * time.Second)
	if got := m.ReapDead(); got != 1 {
		t.Fatalf("ReapDead = %d after silence, want 1", got)
	}
}
