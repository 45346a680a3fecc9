package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/etl"
	"dsi/internal/schema"
	"dsi/internal/tensor"
	"dsi/internal/transforms"
	"dsi/internal/ware"
	"dsi/internal/warehouse"
)

// The traced run. The benchmark plays ServingSimulator, etl.Pipeline and
// dpp.Worker itself, on one goroutine, calling each layer's exported
// functions over generated inputs with a span around each call. Where a
// layer is only reachable through another (LogDevice under Scribe,
// Tectonic under the DWRF writer and reader, the codec under the framed
// transport) the benchmark separates the two with a probe: see
// tracer.probe.

// joinSink collects what the joiner emits for one partition.
type joinSink struct {
	samples []*schema.Sample
	times   []int64
}

func (s *joinSink) Emit(sample *schema.Sample) error { return s.EmitTimed(sample, 0) }

func (s *joinSink) EmitTimed(sample *schema.Sample, eventTime int64) error {
	s.samples = append(s.samples, sample)
	s.times = append(s.times, eventTime)
	return nil
}

// traceIngestChain pushes shape.requests requests through the write
// path, one partition at a time, and returns the environment holding the
// sealed table. Partition k's spans share the trace id of its key.
func traceIngestChain(t *tracer, seed int64, shape ingestShape, o *oracle) (*ingestEnv, error) {
	var env *ingestEnv
	var gen *datagen.Generator
	sink := &joinSink{}
	var joiner *etl.Joiner
	const scratchStream = "bench/replay"
	err := t.offClock(func() (err error) {
		if env, err = newIngestEnv(seed, shape); err != nil {
			return err
		}
		gen = datagen.NewGenerator(env.spec, seed)
		joiner = etl.NewJoiner(ingestModel, env.bus, sink)
		return env.store.CreateStream(scratchStream)
	})
	if err != nil {
		return nil, err
	}
	featCat, eventCat := datagen.FeatureCategory(ingestModel), datagen.EventCategory(ingestModel)
	cursors := env.pipe.Cursors

	nextID := int64(1)
	for k := 0; k*shape.partitionRows < shape.requests; k++ {
		n := min(shape.partitionRows, shape.requests-k*shape.partitionRows)
		rows := int64(n)
		key := fmt.Sprintf("part-%06d", k)

		samples := make([]*schema.Sample, n)
		t.in("datagen.sample", key, rows, func() error {
			for i := range samples {
				samples[i] = gen.Sample()
			}
			return nil
		})

		feats, events := make([][]byte, n), make([][]byte, n)
		if _, err := t.in("datagen.encode", key, rows, func() (err error) {
			now := time.Now().UnixNano()
			for i, s := range samples {
				fl := &datagen.FeatureLog{RequestID: nextID, Dense: s.DenseFeatures, Sparse: s.SparseFeatures, EventTime: now}
				if feats[i], err = datagen.EncodeFeatureLog(fl); err != nil {
					return err
				}
				if events[i], err = datagen.EncodeEventLog(&datagen.EventLog{RequestID: nextID, Engaged: s.Label > 0}); err != nil {
					return err
				}
				nextID++
			}
			return nil
		}); err != nil {
			return nil, err
		}

		logID, err := t.in("scribe.log", key, rows, func() error {
			for i := range feats {
				if err := env.daemon.Log(featCat, feats[i]); err != nil {
					return err
				}
				if err := env.daemon.Log(eventCat, events[i]); err != nil {
					return err
				}
			}
			return env.daemon.Flush()
		})
		if err != nil {
			return nil, fmt.Errorf("scribe: %w", err)
		}
		if err := t.probe(logID, "logdevice.append", rows, func() error {
			for i := range feats {
				if _, err := env.store.Append(scratchStream, feats[i]); err != nil {
					return err
				}
				if _, err := env.store.Append(scratchStream, events[i]); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("logdevice replay: %w", err)
		}

		sink.samples, sink.times = sink.samples[:0], sink.times[:0]
		if _, err := t.in("etl.join", key, rows, func() error {
			for len(sink.samples) < n {
				consumed, err := joiner.Step(1024)
				if err != nil {
					return err
				}
				if consumed == 0 {
					return fmt.Errorf("joiner drained with %d of %d rows joined", len(sink.samples), n)
				}
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("join: %w", err)
		}

		if _, err := t.in("etl.cursor", key, rows, func() error {
			state, err := joiner.Checkpoint()
			if err != nil {
				return err
			}
			return cursors.Intent(key, state)
		}); err != nil {
			return nil, fmt.Errorf("cursor intent: %w", err)
		}

		var path string
		encodeID, err := t.in("dwrf.encode", key, rows, func() error {
			pw, err := env.table.NewPartition(key)
			if err != nil {
				return err
			}
			for i, s := range sink.samples {
				if err := pw.WriteRow(s); err != nil {
					return err
				}
				pw.NoteEventTime(sink.times[i])
			}
			return pw.Close()
		})
		if err != nil {
			return nil, fmt.Errorf("encode: %w", err)
		}
		var sealed []byte
		if err := t.offClock(func() error {
			p, err := env.table.Partition(key)
			if err != nil {
				return err
			}
			path = p.Path
			sealed, _, err = env.cluster.ReadAll(path)
			return err
		}); err != nil {
			return nil, err
		}
		if err := t.probe(encodeID, "tectonic.append", rows, func() error {
			replay := "bench/replay/" + key
			if err := env.cluster.Create(replay); err != nil {
				return err
			}
			return env.cluster.Append(replay, sealed)
		}); err != nil {
			return nil, fmt.Errorf("tectonic replay: %w", err)
		}

		if _, err := t.in("etl.cursor", key, 0, func() error {
			if err := cursors.Commit(key); err != nil {
				return err
			}
			return joiner.TrimConsumed()
		}); err != nil {
			return nil, fmt.Errorf("cursor commit: %w", err)
		}
	}

	return env, t.offClock(func() error {
		got, err := env.tableDigest()
		if err != nil {
			return err
		}
		o.checkDigest("traced ingest chain", got, storedDigest(servedSamples(env.spec, seed, shape.requests)))
		o.checkCount("traced joiner.Joined", joiner.Joined.Value(), int64(shape.requests))
		return nil
	})
}

// pushSource is the worker buffer the traced read chain serves the
// framed data plane from. TryGetBatch blocks until the chain pushes a
// batch: the transport is timed one batch at a time, and a polling
// source would add the server's idle-poll sleep to every one of them.
type pushSource struct {
	batches chan *tensor.Batch
}

func (s *pushSource) TryGetBatch() (*tensor.Batch, bool, bool) {
	b, ok := <-s.batches
	return b, ok, !ok
}

// yield gives up the P and the CPU between two polls of FetchBatch. The
// second matters when the kernel has every thread of the process on one
// CPU, which it does after a window on one P (it will not wake a thread
// on a halted vCPU): a poller that only yields the P keeps that CPU until
// its time slice ends, and the hand-off reads 4 ms a batch.
func yield() {
	runtime.Gosched()
	syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
}

// readChain is the read path of one tenant, played by the benchmark:
// lease, cache probe, fetch+decode, transform, materialize, wire,
// consume, ack — one split at a time, each split a trace.
type readChain struct {
	t      *tracer
	wh     *warehouse.Warehouse
	spec   dpp.SessionSpec
	proj   *schema.Projection
	plan   *transforms.Plan
	arena  *dwrf.Arena
	cache  *ware.Cache
	tenant string
	// decodeStage names the decoder a split exercises.
	decodeStage func(warehouse.Split) string
}

func newReadChain(t *tracer, wh *warehouse.Warehouse, spec dpp.SessionSpec, cache *ware.Cache, tenant string) (*readChain, error) {
	plan, err := transforms.NewGraph().Add(spec.Ops...).CompilePlan()
	if err != nil {
		return nil, fmt.Errorf("compile plan: %w", err)
	}
	return &readChain{
		t: t, wh: wh, spec: spec, proj: spec.Projection(), plan: plan, arena: dwrf.NewArena(), cache: cache, tenant: tenant,
		decodeStage: func(warehouse.Split) string { return "dwrf.decode.plain" },
	}, nil
}

// sliceRows copies rows [start, end) of a materialized batch, the way a
// worker cuts a split's tensors into BatchSize batches.
func sliceRows(b *tensor.Batch, start, end int) *tensor.Batch {
	cols := b.Dense.Cols
	out := &tensor.Batch{
		Rows:            end - start,
		DenseFeatureIDs: b.DenseFeatureIDs,
		Labels:          append([]float32(nil), b.Labels[start:end]...),
		Dense:           &tensor.Dense2D{Rows: end - start, Cols: cols, Data: append([]float32(nil), b.Dense.Data[start*cols:end*cols]...)},
	}
	for _, s := range b.Sparse {
		lo, hi := s.Offsets[start], s.Offsets[end]
		ns := &tensor.SparseTensor{Feature: s.Feature, Offsets: make([]int32, end-start+1), Indices: append([]int64(nil), s.Indices[lo:hi]...)}
		for i := range ns.Offsets {
			ns.Offsets[i] = s.Offsets[start+i] - lo
		}
		out.Sparse = append(out.Sparse, ns)
	}
	return out
}

// prepare is everything up to tensors for one split: probe the cache,
// and on a miss fetch, decode, publish, transform and publish again.
func (c *readChain) prepare(trace string, split warehouse.Split) ([]*tensor.Batch, error) {
	t, proj := c.t, c.proj
	var sid, xid ware.WareID
	var work *dwrf.Batch
	transformed := false
	probeID, err := t.in("ware.probe", trace, 0, func() error {
		r, err := c.wh.CachedReader(split.Path)
		if err != nil {
			return err
		}
		sid = ware.StripeID(r.StripeContentHash(split.Stripe), split.Path, split.Stripe, proj)
		xid = ware.XformID(sid, c.plan.Fingerprint())
		if work = c.cache.Get(xid, c.tenant); work != nil {
			transformed = true
		} else if b := c.cache.Get(sid, c.tenant); b != nil {
			work = b.Derive(c.arena)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if work == nil {
		var stats dwrf.ReadStats
		readID, err := t.in(c.decodeStage(split), trace, 0, func() (err error) {
			work, stats, err = c.wh.ReadSplitBatchCachedArena(split, proj, c.spec.Read, c.arena)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", trace, err)
		}
		rows := int64(work.Rows)
		t.at(readID).Rows = rows
		t.child(readID, "tectonic.read", rows, stats.FetchWall, 0)
		t.in("ware.probe", trace, 0, func() error {
			b, shared := c.cache.Insert(sid, work, c.tenant)
			if shared {
				b = b.Derive(c.arena)
			}
			work = b
			return nil
		})
	}
	rows := int64(work.Rows)
	t.at(probeID).Rows = rows // the split's first ware.probe span counts its rows
	if !transformed {
		if _, err := t.in("transforms.run", trace, rows, func() error {
			_, err := c.plan.Run(work, c.arena)
			return err
		}); err != nil {
			return nil, fmt.Errorf("transform %s: %w", trace, err)
		}
		t.in("ware.probe", trace, 0, func() error {
			work, _ = c.cache.Insert(xid, work, c.tenant)
			return nil
		})
	}
	var batches []*tensor.Batch
	_, err = t.in("tensor.materialize", trace, rows, func() error {
		full, err := tensor.Materialize(work, c.spec.DenseOut, c.spec.SparseOut)
		work.Release()
		if err != nil {
			return err
		}
		for start := 0; start < full.Rows; start += c.spec.BatchSize {
			batches = append(batches, sliceRows(full, start, min(start+c.spec.BatchSize, full.Rows)))
		}
		return nil
	})
	return batches, err
}

// run plays one whole session over master's table and returns the digest
// of what the trainer end consumed.
func (c *readChain) run(master *dpp.Master) (*tensor.ContentSum, error) {
	t := c.t
	src := &pushSource{batches: make(chan *tensor.Batch)}
	var api dpp.WorkerAPI
	var stopServe func()
	if err := t.offClock(func() error {
		if _, err := master.RegisterWorker(c.tenant, ""); err != nil {
			return err
		}
		ln, stop, err := dpp.ServeBatchSource(src, "127.0.0.1:0")
		if err != nil {
			return err
		}
		stopServe = stop
		api, err = dpp.DialWorkerFramed(ln.Addr().String())
		return err
	}); err != nil {
		if stopServe != nil {
			stopServe()
		}
		return nil, err
	}
	defer func() {
		close(src.batches)
		if cl, ok := api.(interface{ Close() error }); ok {
			_ = cl.Close()
		}
		stopServe()
	}()

	sum := tensor.NewContentSum()
	for {
		leaseID := t.begin("dpp.lease", "", 0)
		split, splitID, ok, _, err := master.NextSplit(c.tenant)
		t.end(leaseID)
		if err != nil {
			return nil, err
		}
		if !ok {
			break // the empty poll that ends the session stays a dpp.lease span of no split
		}
		trace := fmt.Sprintf("%s/%d", split.Partition, split.Stripe)
		t.at(leaseID).Trace = trace

		batches, err := c.prepare(trace, split)
		if err != nil {
			return nil, err
		}
		var splitRows int64
		for _, b := range batches {
			rows := int64(b.Rows)
			splitRows += rows
			var got *tensor.Batch
			wireID, err := t.in("dpp.wire", trace, rows, func() error {
				src.batches <- b
				for {
					fetched, ok, done, err := api.FetchBatch()
					if err != nil {
						return err
					}
					if ok {
						got = fetched
						return nil
					}
					if done {
						return fmt.Errorf("stream ended early")
					}
					yield()
				}
			})
			if err != nil {
				return nil, fmt.Errorf("wire %s: %w", trace, err)
			}
			var frame []byte
			t.probe(wireID, "tensor.wire_encode", rows, func() error {
				frame = b.AppendBinary(tensor.GetFrameBuf())
				return nil
			})
			if err := t.probe(wireID, "tensor.wire_decode", rows, func() error {
				dec, _, err := tensor.DecodeBinary(frame)
				if err != nil {
					return err
				}
				dec.Release()
				return nil
			}); err != nil {
				return nil, err
			}
			tensor.PutFrameBuf(frame)
			t.in("trainer.consume", trace, rows, func() error {
				sum.AddBatch(got)
				got.Release()
				return nil
			})
		}
		t.at(leaseID).Rows = splitRows
		if _, err := t.in("dpp.lease", trace, 0, func() error { return master.CompleteSplit(c.tenant, splitID) }); err != nil {
			return nil, err
		}
	}
	if done, err := master.Done(); err != nil || !done {
		return nil, fmt.Errorf("traced session ended with done=%v err=%v", done, err)
	}
	return sum, nil
}

// traceIngestWrite is ingest_write's traced run: the ingest chain alone.
func traceIngestWrite(cfg config, out *outcome) error {
	shape := ingestWriteShape(cfg)
	t := newTracer()
	if _, err := traceIngestChain(t, cfg.seed, shape, out.oracle); err != nil {
		return err
	}
	return t.report(cfg, "ingest_write", out, int64(shape.requests))
}

// traceTrain is the training workloads' traced run: one epoch of the
// read chain over the same table and cache the window used, on the miss
// and evict path for train_cold and the hit path for train_shared_warm.
func traceTrain(cfg config, out *outcome, env *trainEnv, cache *ware.Cache, want *tensor.ContentSum, warm bool) error {
	workload, tenant := "train_cold", "cold"
	if warm {
		workload, tenant = "train_shared_warm", "tenant-a"
	}
	t := newTracer()
	chain, err := newReadChain(t, env.wh, env.spec, cache, tenant)
	if err != nil {
		return err
	}
	chain.decodeStage = func(sp warehouse.Split) string {
		var p int
		if _, err := fmt.Sscanf(sp.Partition, "part-%d", &p); err == nil && p%2 == 1 {
			return "dwrf.decode.dict"
		}
		return "dwrf.decode.plain"
	}
	master, err := dpp.NewMaster(env.wh, env.spec)
	if err != nil {
		return err
	}
	got, err := chain.run(master)
	if err != nil {
		return err
	}
	out.oracle.checkDigest("traced "+workload, got, want)
	return t.report(cfg, workload, out, got.Rows)
}

// traceLiveLoop is live_loop's traced run: the ingest chain into an
// unbounded table, then two tenants' read chains over it through one
// shared cache — the first on the miss path, the second hitting what the
// first published.
func traceLiveLoop(cfg config, out *outcome) error {
	live, _ := liveShapeFor(cfg)
	shape, batchSize := live.ingest, live.batchSize
	shape.requests = 1024
	if cfg.reduced {
		shape.requests = 64
	}
	t := newTracer()
	env, err := traceIngestChain(t, cfg.seed, shape, out.oracle)
	if err != nil {
		return err
	}
	spec := sessionSpec(ingestModel, true, batchSize)
	cache := ware.NewCache(live.cacheBytes)
	var expect *tensor.ContentSum
	if err := t.offClock(func() (err error) {
		if err := env.table.CloseStream(); err != nil {
			return err
		}
		expect, err = servedDelivered(cfg.seed, shape.requests, spec)
		return err
	}); err != nil {
		return err
	}
	var delivered int64
	for _, tenant := range live.tenants {
		chain, err := newReadChain(t, env.wh, spec, cache, tenant)
		if err != nil {
			return err
		}
		master, err := dpp.NewMaster(env.wh, spec)
		if err != nil {
			return err
		}
		got, err := chain.run(master)
		if err != nil {
			return err
		}
		out.oracle.checkDigest("traced live_loop "+tenant, got, expect)
		delivered += got.Rows
	}
	return t.report(cfg, "live_loop", out, delivered)
}
