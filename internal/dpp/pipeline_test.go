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

// TestRunHeartbeatErrors holds both heartbeating loops — Run's
// heartbeatLoop and Retire's — to the one rule: transport failures never
// count, however many, and maxRejections consecutive disownments crash
// the worker. A worker that is not disowned finishes: Run delivers
// every row and Retire deregisters after a clean drain.
func TestRunHeartbeatErrors(t *testing.T) {
	const wait = 10 * time.Second
	for _, kind := range []struct {
		name    string
		err     error
		disowns bool
	}{
		{"transport", errors.New("read tcp 127.0.0.1:7170: connection reset by peer"), false},
		{"disowned", errUnregistered("w"), true},
		// net/rpc hands the caller the handler's error as its text.
		{"disowned over rpc", rpc.ServerError(errUnregistered("w").Error()), true},
	} {
		t.Run(kind.name, func(t *testing.T) {
			for _, loop := range []string{"Run", "Retire"} {
				t.Run(loop, func(t *testing.T) {
					wh, spec := buildFixture(t, 64, 16) // 8 one-batch splits, 128 rows
					spec.BufferDepth = 8                // every batch fits, so only consumption completes a split
					m, err := NewMaster(wh, spec)
					if err != nil {
						t.Fatal(err)
					}
					fm := &heartbeatFaultMaster{MasterAPI: m, err: kind.err}
					w, err := NewWorker("w", fm, wh)
					if err != nil {
						t.Fatal(err)
					}
					w.heartbeatEvery = time.Millisecond
					faults := int32(maxRejections + 2) // more than the rule forgives
					if kind.disowns {
						faults = maxRejections
					}

					// The loop under test runs with the buffer full of
					// unconsumed batches, so it is still heartbeating when
					// the faults arrive.
					done := make(chan error, 1)
					if loop == "Run" {
						fm.fail.Store(faults)
						go func() { done <- w.Run(nil) }()
					} else {
						for {
							ok, err := w.ProcessOneSplit()
							if err != nil {
								t.Fatal(err)
							}
							if !ok {
								break
							}
						}
						fm.fail.Store(faults)
						go func() { done <- w.Retire(nil) }()
					}

					if kind.disowns {
						select {
						case err := <-done:
							if err != nil {
								t.Fatalf("%s of a disowned worker = %v, want nil", loop, err)
							}
						case <-time.After(wait):
							t.Fatalf("%s still running after %d disowning heartbeats", loop, faults)
						}
						if !w.Crashed() || fm.fail.Load() > 0 {
							t.Fatalf("crashed %v with %d rejections left, want a crash on the last", w.Crashed(), fm.fail.Load())
						}
						if n := m.WorkerCount(); n != 1 {
							t.Fatalf("%d workers registered, want the disowned one left for the service", n)
						}
						return
					}

					for deadline := time.Now().Add(wait); fm.fail.Load() >= 0; time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("%d injected transport errors never all sent", fm.fail.Load())
						}
					}
					if w.Crashed() {
						t.Fatal("transport errors crashed the worker")
					}
					rows := 0
					for i := 0; i < 8; i++ {
						b, ok := getBatch(w)
						if !ok {
							t.Fatalf("worker finished after %d batches", i)
						}
						rows += b.Rows
					}
					select {
					case err := <-done:
						if err != nil {
							t.Fatalf("%s = %v after transport errors, want nil", loop, err)
						}
					case <-time.After(wait):
						t.Fatalf("%s did not return after the buffer drained", loop)
					}
					if done, _ := m.Done(); !done || rows != 128 {
						t.Fatalf("session done %v with %d rows, want done with 128", done, rows)
					}
					if loop == "Retire" && m.WorkerCount() != 0 {
						t.Fatal("Retire did not deregister after a clean drain")
					}
				})
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

// popBatch pops the worker's next buffered frame without blocking and
// decodes it, acking the pop at once as consumption for the split
// ledger — a consumer that, unlike a stream's window, cannot lose what
// it popped. done=true means the worker has finished and drained.
func popBatch(w *Worker) (b *tensor.Batch, ok, done bool, err error) {
	f, ok, done := w.tryGetFrame()
	if !ok {
		return nil, false, done, nil
	}
	w.ackConsumed(f)
	b, err = f.decode()
	f.free()
	return b, err == nil, false, err
}

// getBatch is popBatch waiting for a batch; ok=false once the worker
// has finished and drained.
func getBatch(w *Worker) (*tensor.Batch, bool) {
	for {
		ready := w.BatchReady()
		if b, ok, done, err := popBatch(w); ok || done || err != nil {
			return b, ok
		}
		<-ready
	}
}

// TestPipelinedSessionConcurrentStats runs a parallel pipeline while
// hammering sampleStats/Report/Buffered from other goroutines; run
// under -race this is the pipeline's data-race check.
func TestPipelinedSessionConcurrentStats(t *testing.T) {
	wh, spec := buildFixture(t, 96, 8) // 24 splits
	spec.Pipeline = PipelineOptions{Prefetchers: 4, TransformParallelism: 4}
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
				_ = w.sampleStats()
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
// actually bounds the worker's resident frame bytes (paper: bounded
// buffering avoids OOM).
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
		// The buffer holds each batch as its whole stream frame.
		if s := int64(frameHeaderLen + batchTagLen + b.EncodedSize()); s > maxBatch {
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

// leaseCounter is a MasterAPI wrapper counting the leases it grants.
type leaseCounter struct {
	MasterAPI
	leases atomic.Int64
}

func (c *leaseCounter) NextSplit(workerID string) (warehouse.Split, int, bool, bool, error) {
	split, splitID, ok, draining, err := c.MasterAPI.NextSplit(workerID)
	if ok {
		c.leases.Add(1)
	}
	return split, splitID, ok, draining, err
}

// TestReadAheadStopsAtTheBuffer: with no consumer, a worker reads ahead
// only as far as its full buffer and one evaluated split per evaluator
// blocked delivering into it, and then leases nothing while nothing is
// consumed.
func TestReadAheadStopsAtTheBuffer(t *testing.T) {
	wh, spec := buildFixture(t, 64, 8) // 16 splits of 8 rows
	spec.BatchSize = 4                 // two frames a split
	spec.BufferDepth = 2               // the buffer holds one split
	spec.Pipeline = PipelineOptions{Prefetchers: 1, TransformParallelism: 1}
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	counted := &leaseCounter{MasterAPI: m}
	w, err := NewWorker("w", counted, wh)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	ran := make(chan error, 1)
	go func() { ran <- w.Run(stop) }()

	// Frames of two splits may share the buffer, so fewer leases can
	// fill it; none may follow once it is full.
	const evaluators, bufferedSplits = 2, 1
	eventually(t, "a full buffer", func() bool { return w.Buffered() == spec.BufferDepth })
	time.Sleep(idleWindow)
	if n := counted.leases.Load(); n > evaluators+bufferedSplits {
		t.Fatalf("worker leased %d splits with nothing consumed, want at most %d", n, evaluators+bufferedSplits)
	}

	close(stop)
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedWorkersShareSession runs several pipelined workers
// against one master while a poller samples them as the fleet
// heartbeat does and reads the session's recovery total.
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
		apis = append(apis, dialWorker(t, w))
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
				for _, w := range workers {
					_ = w.sampleStats()
				}
				_, _ = m.Recovery()
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

// TestWedgedLeasesRequeueAtTheCap: a worker the service still holds
// alive — heartbeating, never completing — cannot keep a split past
// maxLeaseAge. requeueWedged hands back the leases older than the cap
// and keeps the younger ones.
func TestWedgedLeasesRequeueAtTheCap(t *testing.T) {
	wh, spec := buildFixture(t, 64, 16)
	m, err := NewMaster(wh, spec)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	m.now = func() time.Time { return now }
	if _, err := m.RegisterWorker("w1", ""); err != nil {
		t.Fatal(err)
	}
	lease := func() {
		t.Helper()
		if _, _, ok, _, err := m.NextSplit("w1"); err != nil || !ok {
			t.Fatal("lease failed")
		}
	}
	for i := 0; i < 3; i++ {
		lease()
	}
	now = now.Add(maxLeaseAge)
	if err := m.Heartbeat("w1", WorkerStats{}); err != nil {
		t.Fatal(err)
	}
	if got := m.requeueWedged(); got != 0 {
		t.Fatalf("requeueWedged = %d at the cap, want 0", got)
	}
	lease()
	now = now.Add(time.Second)
	if got := m.requeueWedged(); got != 3 {
		t.Fatalf("requeueWedged = %d past the cap, want 3", got)
	}
	m.mu.Lock()
	inflight, pending := len(m.inflight), len(m.pending)
	m.mu.Unlock()
	if inflight != 1 || pending != 7 {
		t.Fatalf("%d leases in flight and %d pending, want the young lease kept and 7 pending", inflight, pending)
	}
}
