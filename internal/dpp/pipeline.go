package dpp

import "sync"

// This file implements Worker.Run's loop. A worker does one thing per
// split — extract, transform, load — and step is that one thing: lease
// → evalSplit → deliver into the bounded buffer, or release the split
// back on a retryable storage error. Run is that step, N times over:
//
//	evaluator pool (Prefetchers + TransformParallelism goroutines, each
//	running step until the session is done or this worker drains)
//	    master.NextSplit → evalSplit: cached reader → ware cache probe
//	    → fetch + decode → plan → frames (one per BatchSize rows)
//	    → deliverSplit: resource accounting → bounded output buffer
//	      (BufferDepth frames / MaxBufferedBytes of frame bytes)
//
// Beside them, heartbeatLoop reports to the session master on a ticker.
//
// Nothing on the read path waits on the wall clock: every hand-off from
// a sealed partition to a trainer tensor happens on an event, announced
// by a channel that is closed (or pinged) under the lock guarding the
// state it announces. Three wake-ups carry a tensor the rest of the way:
//
//   - master/table → idle evaluator (evalLoop): MasterAPI.WorkChanged,
//     closed when a lease returns to the queue, the last split completes,
//     the worker is drained or the session fails, and when the tailed
//     table publishes a partition or closes its stream;
//   - buffer → stream server (dataplane.go): Worker.BatchReady, closed by
//     deliver, ungetFrames and finish;
//   - stream → client (client.go): the read loop pings the channel
//     Client.Next waits on as each frame lands and when the stream ends.
//
// One rule everywhere: take the channel before you ask, wait on it only
// after the answer was "nothing" — an event between the answer and the
// wait then finds the channel already closed. The only timer left on
// the worker is the heartbeat. The buffer is the one queue: evaluators
// run ahead of the trainers until it fills, which is what keeps them fed
// while earlier tensors drain (the paper's central DPP requirement), and
// then each blocks in deliver with at most one evaluated split, so a
// slow trainer stalls the evaluators instead of growing memory without
// limit. ProcessOneSplit is the same step on the caller's goroutine.

// pipelineAbort coordinates shutdown across the pool: the first failure
// (or an external stop) closes the abort channel, and every goroutine
// unblocks and returns.
type pipelineAbort struct {
	ch   chan struct{}
	once sync.Once
	err  error // the first failure; read only after a fail call returned
}

// fail records the first error and releases every goroutine. A nil err
// is an orderly stop (external cancellation), not a failure.
func (a *pipelineAbort) fail(err error) {
	a.once.Do(func() {
		a.err = err
		close(a.ch)
	})
}

// Run processes splits until the master reports the session done, the
// master marks this worker draining (the auto-scaler shrinking the
// pool), stop is closed, or a split fails. Splits already evaluated are
// always delivered before an orderly Run returns; buffered batches
// remain fetchable afterwards — follow with Retire to serve them out
// and deregister. The session heartbeat runs on its own ticker
// (heartbeatLoop) until Run returns; a worker the master disowns
// crashes under its rule, which ends the run.
func (w *Worker) Run(stop <-chan struct{}) error {
	defer w.finish()
	pl := w.spec.Pipeline
	abort := &pipelineAbort{ch: make(chan struct{})}

	// Until Run returns: session heartbeats, and the external stop
	// signal — and the fault-injection crash — translated into an
	// orderly abort of the pool.
	returned := make(chan struct{})
	defer close(returned)
	go w.heartbeatLoop(returned)
	go func() {
		select {
		case <-stop:
			abort.fail(nil)
		case <-w.crashCh:
			abort.fail(nil)
		case <-abort.ch:
		case <-returned:
		}
	}()

	// The plan is immutable after compilation and each split's batch is
	// private to the goroutine evaluating it, so the evaluators share
	// nothing but the column arena, the stopwatches, the cache and the
	// buffer. Waiting for the pool leaves the worker owning no
	// concurrency after Run returns.
	var pool sync.WaitGroup
	for range pl.Prefetchers + pl.TransformParallelism {
		pool.Add(1)
		go func() {
			defer pool.Done()
			w.evalLoop(abort)
		}()
	}
	pool.Wait()
	abort.fail(nil) // no-op if a real error or stop already aborted
	return abort.err
}

// evalLoop is one evaluator goroutine: it runs the step until the
// session is done or this worker drains. Told there is nothing to
// lease, it waits for an event that can change that answer — never for
// a timer.
func (w *Worker) evalLoop(abort *pipelineAbort) {
	for {
		select {
		case <-abort.ch:
			return
		default:
		}
		// Take the wake-ups before asking, so nothing that happens between
		// the master's answer and the wait below is missed.
		session, table := w.master.WorkChanged()
		leased, err := w.step(abort.ch)
		if err == errCanceled {
			// Delivery is canceled only by an abort already in flight
			// (external stop, crash, or a failed split).
			return
		}
		if err != nil {
			abort.fail(err)
			return
		}
		if leased {
			continue
		}
		if w.Draining() {
			// The master hands this worker no further leases; every split
			// this evaluator took is already delivered.
			return
		}
		done, err := w.master.Done()
		if err != nil {
			abort.fail(err)
			return
		}
		if done {
			return
		}
		// The remaining splits are leased (to this worker's buffer, to its
		// other evaluators, or to other workers) or not sealed yet. Ask
		// again when the master's answer may have changed — a lease
		// requeued, the last split completed — or the table publishes.
		select {
		case <-abort.ch:
			return
		case <-session:
		case <-table:
		}
	}
}
