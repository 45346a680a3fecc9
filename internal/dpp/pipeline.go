package dpp

import (
	"fmt"
	"sync"
	"time"

	"dsi/internal/dwrf"
	"dsi/internal/tectonic"
	"dsi/internal/ware"
)

// This file implements Worker.Run's loop: fetch → decode → transform →
// deliver as three overlapped stages joined by bounded channels, so the
// NIC keeps fetching stripes while the CPU transforms earlier ones and
// finished tensors drain to trainers concurrently (the paper's central
// DPP requirement: online preprocessing must overlap extract, transform,
// and load to keep trainers fed).
//
//	fetch pool (Prefetchers goroutines)
//	    master.NextSplit → warehouse read (cached reader, pooled
//	    buffers) → decoded columnar batch
//	        │  bounded by PrefetchDepth
//	transform pool (TransformParallelism goroutines)
//	    preprocessing graph → tensor materialization → batch slicing
//	        │  bounded by PrefetchDepth
//	deliver stage (one goroutine: the Run caller)
//	    resource accounting → bounded output buffer (BufferDepth
//	    batches / MaxBufferedBytes) → CompleteSplit → heartbeat
//
// Every inter-stage channel is bounded, so a slow trainer stalls the
// whole pipeline backwards instead of growing buffers without limit.

// fetchedSplit is one decoded split flowing from fetch to transform.
type fetchedSplit struct {
	splitID int
	batch   *dwrf.Batch
	stats   dwrf.ReadStats
	// preXformed marks batch as a cached transform output: the
	// transform stage skips the plan and only materializes tensors
	// from the shared batch.
	preXformed bool
	// xformWare, when set, names the ware the transform stage should
	// publish its output under (fleet cache attached, no xform hit).
	xformWare ware.WareID
}

// transformedSplit is one transformed split flowing to the deliver stage.
type transformedSplit struct {
	splitID int
	stats   dwrf.ReadStats
	tr      transformed
}

// pipelineAbort coordinates shutdown across stage goroutines: the first
// failure (or an external stop) closes the abort channel, and every
// stage unblocks and drains.
type pipelineAbort struct {
	ch   chan struct{}
	once sync.Once

	mu  sync.Mutex
	err error
}

func newPipelineAbort() *pipelineAbort {
	return &pipelineAbort{ch: make(chan struct{})}
}

// fail records the first error and releases every stage. A nil err is an
// orderly stop (external cancellation), not a failure.
func (a *pipelineAbort) fail(err error) {
	a.once.Do(func() {
		a.mu.Lock()
		a.err = err
		a.mu.Unlock()
		close(a.ch)
	})
}

// firstErr returns the recorded error, if any.
func (a *pipelineAbort) firstErr() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// runPipelined drives the session through the overlapped data plane
// until the master reports it done, stop is closed, or a stage fails.
func (w *Worker) runPipelined(stop <-chan struct{}) error {
	pl := w.spec.Pipeline
	abort := newPipelineAbort()

	// Translate the external stop signal — and the fault-injection
	// crash — into an orderly abort of the stage goroutines.
	stopDone := make(chan struct{})
	defer close(stopDone)
	go func() {
		var stopCh <-chan struct{}
		if stop != nil {
			stopCh = stop
		}
		select {
		case <-stopCh:
			abort.fail(nil)
		case <-w.crashCh:
			abort.fail(nil)
		case <-abort.ch:
		case <-stopDone:
		}
	}()

	fetched := make(chan fetchedSplit, pl.PrefetchDepth)
	xformed := make(chan transformedSplit, pl.PrefetchDepth)

	// Fetch pool: lease splits and decode them ahead of the transform
	// stage.
	var fetchWG sync.WaitGroup
	for i := 0; i < pl.Prefetchers; i++ {
		fetchWG.Add(1)
		go func() {
			defer fetchWG.Done()
			w.fetchLoop(fetched, abort)
		}()
	}
	go func() {
		fetchWG.Wait()
		close(fetched)
	}()

	// Transform pool: run the compiled plan concurrently. The plan is
	// immutable after compilation, so sharing it across goroutines is
	// safe; each split's batch is private to one goroutine at a time.
	var xformWG sync.WaitGroup
	for i := 0; i < pl.TransformParallelism; i++ {
		xformWG.Add(1)
		go func() {
			defer xformWG.Done()
			for f := range fetched {
				tr, err := w.transformFetched(f)
				if err != nil {
					abort.fail(err)
					return
				}
				select {
				case xformed <- transformedSplit{splitID: f.splitID, stats: f.stats, tr: tr}:
				case <-abort.ch:
					return
				}
			}
		}()
	}
	go func() {
		xformWG.Wait()
		close(xformed)
	}()

	// Deliver stage, on the caller's goroutine: account, buffer with
	// backpressure, heartbeat. The split itself is acknowledged by the
	// consumption ledger (finishSplit / ackConsumed) once clients have
	// consumed every batch, not when the buffer accepts them — see
	// splitAcct in worker.go.
	for t := range xformed {
		w.accountSplit(t.stats, t.tr)
		tagBatches(t.splitID, t.tr.batches)
		w.beginSplit(t.splitID)
		err := w.deliverAll(t.tr.batches, abort.ch)
		w.finishSplit(t.splitID, err == nil)
		if err != nil {
			// Delivery is canceled only by an abort already in flight
			// (external stop, crash, or a stage failure); fold into it.
			abort.fail(nil)
			break
		}
		if err := w.master.Heartbeat(w.ID, w.heartbeatStats()); err != nil {
			abort.fail(err)
			break
		}
	}

	// Unblock and drain any stage still running, then wait for all
	// goroutines so the worker owns no concurrency after Run returns.
	abort.fail(nil) // no-op if a real error or stop already aborted
	for range xformed {
	}
	fetchWG.Wait()
	xformWG.Wait()
	// On an aborted run decoded splits may still sit in the fetch queue
	// with no transform stage left to consume them; drop this worker's
	// ownership of each. Release is refcount-aware: an exclusively
	// owned batch recycles its arena buffers immediately, while a batch
	// simultaneously held by the fleet cache or by another session's
	// Derive view merely loses this pipeline's reference. (The channel
	// is closed once the fetch pool exits.)
	for f := range fetched {
		f.batch.Release()
	}

	return abort.firstErr()
}

// fetchLoop is one fetch-pool goroutine: it leases splits until the
// session is done, decoding each through the cached-reader path.
func (w *Worker) fetchLoop(out chan<- fetchedSplit, abort *pipelineAbort) {
	// Idle polling backs off exponentially so a worker waiting on
	// splits leased elsewhere doesn't hammer a remote master with RPCs
	// during the session tail; the local splitDone signal still ends
	// the wait immediately when this worker completes a split.
	const maxBackoff = 50 * time.Millisecond
	backoff := time.Millisecond
	for {
		select {
		case <-abort.ch:
			return
		default:
		}
		split, splitID, ok, draining, err := w.master.NextSplit(w.ID)
		if err != nil {
			abort.fail(err)
			return
		}
		if draining {
			// Drain-complete for this fetcher: the master hands out no
			// further leases; already-fetched splits still flow through
			// transform and delivery before Run returns.
			w.setDraining()
			return
		}
		if !ok {
			done, err := w.master.Done()
			if err != nil {
				abort.fail(err)
				return
			}
			if done {
				return
			}
			// The remaining splits are leased (to this worker's deliver
			// stage or to other workers); wait for a completion signal
			// before re-checking, with a backed-off timeout covering
			// completions on other workers.
			w.mu.Lock()
			wait := w.splitDone
			w.mu.Unlock()
			select {
			case <-abort.ch:
				return
			case <-wait:
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = time.Millisecond
		f, err := w.fetchSplitThroughCache(split)
		if err != nil {
			// Degraded mode: a retryable storage failure (node down,
			// transient I/O, unrecoverable-by-us corruption) releases
			// the split back to the master for requeue — another worker,
			// or this one after the fault window passes, will pick it up
			// — instead of killing the whole session. The master's
			// per-split poison budget bounds the requeueing; once it is
			// exhausted (requeued=false) the failure is permanent.
			if tectonic.IsRetryable(err) {
				requeued, rerr := w.master.ReleaseSplit(w.ID, splitID, err.Error())
				if rerr == nil && requeued {
					w.noteSplitReleased()
					continue
				}
			}
			abort.fail(fmt.Errorf("dpp: worker %s split %d: %w", w.ID, splitID, err))
			return
		}
		f.splitID = splitID
		select {
		case out <- f:
		case <-abort.ch:
			return
		}
	}
}
