package dpp

import (
	"fmt"
	"time"

	"dsi/internal/dwrf"
	"dsi/internal/freelist"
	"dsi/internal/tectonic"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/ware"
	"dsi/internal/warehouse"
)

// This file is the only place a split becomes tensors. The paper's
// worker does one thing per split — extract, transform, load (§3.2.1) —
// and popular features and samples recur across jobs, so the result is
// worth memoising. The evaluation is a two-level formula over
// content-addressed wares (ware.StripeID, ware.XformID):
//
//	xform ware  ← plan(stripe ware)
//	stripe ware ← decode(fetch(split))
//	frames      ← write(xform ware), one BatchSize-row batch at a time
//
// with the node's ware.Cache as the memo table at both levels. A worker
// without a cache is the same formula over a memo that always computes.

// evaluated is one split as ready-to-send stream frames plus what
// producing them cost; the deliver step folds it into the resource
// report.
type evaluated struct {
	splitID int
	// frames is nil when the split was released back to the master
	// instead (evalNext): leased, but nothing to deliver.
	frames []*frame
	// read is zero when a cached ware answered; xform carries only row
	// counts on a transformed hit, where no plan ran.
	read  dwrf.ReadStats
	xform transforms.Stats
}

// lookup is the memo probe: the cached batch for id with one reference
// retained for the caller; nil on a miss and for a worker without a
// cache. The cache scores the outcome against this worker's tenant.
func (w *Worker) lookup(id ware.WareID) *dwrf.Batch {
	if w.cache == nil {
		return nil
	}
	return w.cache.Get(id, w.cacheTenant)
}

// publish is the memo store: it offers b under id and reports whether
// the cache took it. Accepted or refused (duplicate, over-floor, no
// cache), the caller still holds exactly one reference to the returned
// batch; an accepted batch is shared from here on and must no longer be
// mutated in place.
func (w *Worker) publish(id ware.WareID, b *dwrf.Batch) (*dwrf.Batch, bool) {
	if w.cache == nil {
		return b, false
	}
	return w.cache.Insert(id, b, w.cacheTenant)
}

// stripeWare evaluates decode(fetch(split)) memoised under sid and
// returns it as the plan's input. The plan mutates its input, so a
// stripe ware the cache holds (a hit, or an accepted insert) is handed
// out as a private Derive view — fresh maps over the shared columns —
// and stays pristine; a refused one is still exclusively the caller's.
func (w *Worker) stripeWare(split warehouse.Split, sid ware.WareID, ev *evaluated) (*dwrf.Batch, error) {
	batch := w.lookup(sid)
	if batch == nil {
		var err error
		if batch, ev.read, err = w.wh.ReadSplitBatchCachedArena(split, w.proj, w.spec.Read, w.arena); err != nil {
			return nil, err
		}
		var shared bool
		if batch, shared = w.publish(sid, batch); !shared {
			return batch, nil
		}
	}
	return batch.Derive(w.arena), nil
}

// evalSplit turns one split into its delivered batches as stream frames
// tagged with splitID, reusing whatever any pipeline on this node — any
// session, any tenant — already decoded (stripe ware) or decoded and
// transformed (xform ware) from the same content under the same
// projection and plan. Time up to holding the plan's input is credited
// to the fetch and decode stopwatches (the read's own instrumentation
// separates decode work from storage wait), the rest to transform.
func (w *Worker) evalSplit(split warehouse.Split, splitID int) (ev evaluated, err error) {
	start := time.Now()
	var sid, xid ware.WareID
	if w.cache != nil {
		var r *dwrf.Reader
		if r, err = w.wh.CachedReader(split.Path); err != nil {
			return ev, err
		}
		sid = ware.StripeID(r.StripeContentHash(split.Stripe), split.Path, split.Stripe, w.proj)
		xid = ware.XformID(sid, w.plan.Fingerprint())
	}
	batch := w.lookup(xid)
	xformHit := batch != nil
	if !xformHit {
		batch, err = w.stripeWare(split, sid, &ev)
	}
	mid := time.Now()
	w.stageDecode.Add(ev.read.DecodeWall)
	w.stageFetch.Add(mid.Sub(start) - ev.read.DecodeWall)
	if err != nil {
		return ev, err
	}
	defer func() { w.stageTransform.Add(time.Since(mid)) }()

	if xformHit {
		// The exact batch this session's plan would produce already
		// exists: no plan runs and no transform cycles are accounted —
		// that saving is the point — but the rows still count.
		ev.xform = transforms.Stats{RowsIn: batch.Rows, RowsOut: batch.Rows}
	} else {
		if ev.xform, err = w.plan.Run(batch, w.arena); err != nil {
			return ev, err
		}
		// Post-transform nothing mutates the batch, so other pipelines
		// may start reading it the moment the cache accepts it.
		batch, _ = w.publish(xid, batch)
	}
	// The frame writer copies every value straight into its
	// BatchSize-row frame and never writes the columns, so a shared
	// batch is safe to read. Release then drops this evaluation's
	// reference: an exclusively owned batch returns its columns to the
	// arena, a shared one (cached, or a view over a cached stripe) loses
	// one reference and returns them when its last holder — an eviction,
	// perhaps a later session's — lets go.
	ev.frames, err = w.writeFrames(batch, splitID)
	batch.Release()
	return ev, err
}

// frameWriters recycles frame writers across splits and evaluators.
var frameWriters freelist.List[*tensor.FrameWriter]

// writeFrames cuts a transformed split into its BatchSize-row batches,
// each written once into a recycled stream frame under its provenance
// tags: 1-based split ID, 1-based position and the split's batch count.
// The row ranges are deterministic, so a re-run of the same split
// reproduces the same tags over the same rows and clients can
// deduplicate redelivery.
func (w *Worker) writeFrames(batch *dwrf.Batch, splitID int) ([]*frame, error) {
	fw, ok := frameWriters.Get()
	if !ok {
		fw = new(tensor.FrameWriter)
	}
	defer frameWriters.Put(fw)
	if err := fw.Reset(batch, w.spec.DenseOut, w.spec.SparseOut, w.spec.BatchSize); err != nil {
		return nil, err
	}
	frames := make([]*frame, fw.Len())
	for i := range frames {
		lo, hi := fw.Range(i)
		f := newFrame(int32(splitID)+1, int32(i)+1, int32(len(frames)))
		var size int64
		f.buf, size = fw.AppendRange(f.buf, lo, hi)
		frames[i] = f.seal(hi-lo, size)
	}
	return frames, nil
}

// evalNext is the step both drivers of a worker share — Run's pool
// calls it from every evaluator goroutine, ProcessOneSplit from the
// caller's: lease one split and evaluate it. leased=false means the
// master had nothing to hand out (session done, everything leased
// elsewhere, or this worker marked draining — see Draining).
//
// Degraded mode: a retryable storage failure (node down, transient I/O,
// unrecoverable-by-us corruption) releases the split back to the master
// for requeue — another worker, or this one after the fault window
// passes, will pick it up — instead of killing the session; the step
// then reports leased=true with nothing to deliver. The master's
// per-split poison budget bounds the requeueing; once it is exhausted
// (requeued=false) the failure is permanent.
func (w *Worker) evalNext() (ev evaluated, leased bool, err error) {
	split, splitID, leased, draining, err := w.master.NextSplit(w.ID)
	if draining {
		w.setDraining()
	}
	if err != nil || !leased {
		return ev, false, err
	}
	ev, err = w.evalSplit(split, splitID)
	if err == nil {
		ev.splitID = splitID
		return ev, true, nil
	}
	// The read that failed still retried, failed over and quarantined its
	// way there: that work is reported whether or not the split comes back.
	w.mu.Lock()
	w.report.Recovery.Add(ev.read.Recovery)
	w.mu.Unlock()
	if tectonic.IsRetryable(err) {
		requeued, rerr := w.master.ReleaseSplit(w.ID, splitID, err.Error())
		if rerr == nil && requeued {
			w.mu.Lock()
			w.report.SplitsReleased++
			w.mu.Unlock()
			return evaluated{}, true, nil
		}
	}
	return evaluated{}, true, fmt.Errorf("dpp: worker %s split %d: %w", w.ID, splitID, err)
}
