package main

import (
	"fmt"
	"runtime"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/tensor"
	"dsi/internal/ware"
	"dsi/internal/warehouse"
)

const trainTable = "rm1"

// trainShape sizes the sealed table the two training workloads read and
// how many epochs (full sessions over it) make one pass.
type trainShape struct {
	partitions    int
	partitionRows int
	stripeRows    int
	batchSize     int
	coldEpochs    int
	warmEpochs    int
}

func (s trainShape) rows() int64 { return int64(s.partitions * s.partitionRows) }

func trainShapeFor(cfg config) trainShape {
	if cfg.reduced {
		return trainShape{partitions: 2, partitionRows: 128, stripeRows: 64, batchSize: 32, coldEpochs: 1, warmEpochs: 3}
	}
	return trainShape{partitions: 8, partitionRows: 1024, stripeRows: 256, batchSize: 128, coldEpochs: 8, warmEpochs: 24}
}

// partitionGenerator is the generator behind partition p. Odd partitions
// draw sparse IDs from a 4096-value space, so their columns dictionary-
// encode and the dict decoders and dict-aware kernels run; even ones keep
// the default space and stay on the plain/delta decoders.
func partitionGenerator(seed int64, p int) *datagen.Generator {
	spec := dataSpec()
	if p%2 == 1 {
		spec.SparseCardinality = 4096
	}
	return datagen.NewGenerator(spec, seed*64+int64(p))
}

// trainEnv is a sealed table on a fresh cluster plus what the workloads
// need to know about it.
type trainEnv struct {
	cluster *tectonic.Cluster
	wh      *warehouse.Warehouse
	spec    dpp.SessionSpec
	// decodedBytes is the in-memory size of the whole table decoded
	// under the session's projection: the unit the cache is sized in.
	decodedBytes int64
}

func buildTrainEnv(seed int64, shape trainShape) (*trainEnv, error) {
	e := &trainEnv{spec: sessionSpec(trainTable, false, shape.batchSize)}
	var err error
	if e.cluster, e.wh, err = newWarehouse(); err != nil {
		return nil, err
	}
	table, err := e.wh.CreateTable(trainTable, dataSpec().BuildSchema(),
		dwrf.WriterOptions{Flatten: true, RowsPerStripe: shape.stripeRows})
	if err != nil {
		return nil, fmt.Errorf("create table: %w", err)
	}
	for p := 0; p < shape.partitions; p++ {
		gen := partitionGenerator(seed, p)
		pw, err := table.NewPartition(fmt.Sprintf("part-%02d", p))
		if err != nil {
			return nil, err
		}
		for i := 0; i < shape.partitionRows; i++ {
			if err := pw.WriteRow(gen.Sample()); err != nil {
				return nil, fmt.Errorf("write row: %w", err)
			}
		}
		if err := pw.Close(); err != nil {
			return nil, fmt.Errorf("seal partition: %w", err)
		}
	}
	splits, err := table.Splits(nil)
	if err != nil {
		return nil, err
	}
	arena := dwrf.NewArena()
	proj := e.spec.Projection()
	for _, sp := range splits {
		b, _, err := e.wh.ReadSplitBatchCachedArena(sp, proj, e.spec.Read, arena)
		if err != nil {
			return nil, fmt.Errorf("size table: %w", err)
		}
		e.decodedBytes += b.MemBytes()
		b.Release()
	}
	return e, nil
}

// wantEpoch replays the partition generators and digests what one epoch
// must deliver.
func wantEpoch(seed int64, shape trainShape, spec dpp.SessionSpec) (*tensor.ContentSum, error) {
	want := tensor.NewContentSum()
	for p := 0; p < shape.partitions; p++ {
		gen := partitionGenerator(seed, p)
		for done := 0; done < shape.partitionRows; {
			n := min(1024, shape.partitionRows-done)
			samples := make([]*schema.Sample, n)
			for i := range samples {
				samples[i] = gen.Sample()
			}
			if err := addDelivered(want, samples, spec); err != nil {
				return nil, err
			}
			done += n
		}
	}
	return want, nil
}

// readCounters accumulates, over the sessions of a timed window, the
// counters the read-side layers already keep.
type readCounters struct {
	workerWall                        time.Duration // session wall x workers
	fetch, decode, transform, deliver time.Duration
	rows, wireBytes                   int64
	rxBytes, wantedBytes              int64
	released, retries                 int64
}

func (r *readCounters) addSession(s *session, wall time.Duration) {
	r.workerWall += wall * time.Duration(len(s.workers))
	r.rows += s.rows
	r.wireBytes += s.wireBytes
	for _, w := range s.workers {
		rep := w.Report()
		r.fetch += rep.FetchBusy
		r.decode += rep.DecodeBusy
		r.transform += rep.TransformBusy
		r.deliver += rep.DeliverBusy
		r.rxBytes += rep.NICRxBytes
		r.wantedBytes += rep.StorageWantedBytes
		r.released += rep.SplitsReleased
		r.retries += rep.StorageRetries
	}
}

func (r *readCounters) report(layers map[string]float64, cache *ware.Cache, before ware.Stats) {
	frac := func(d time.Duration) float64 { return ratio(float64(d), float64(r.workerWall)) }
	layers["dpp.worker.fetch_busy_frac"] = frac(r.fetch)
	layers["dpp.worker.decode_busy_frac"] = frac(r.decode)
	layers["dpp.worker.transform_busy_frac"] = frac(r.transform)
	layers["dpp.worker.deliver_busy_frac"] = frac(r.deliver)
	layers["dwrf.read_bytes_per_row"] = ratio(float64(r.rxBytes), float64(r.rows))
	layers["dwrf.overread_frac"] = ratio(float64(r.rxBytes-r.wantedBytes), float64(r.rxBytes))
	layers["tensor.wire_bytes_per_row"] = ratio(float64(r.wireBytes), float64(r.rows))
	layers["dpp.splits_released"] = float64(r.released)
	layers["tectonic.read_retries"] += float64(r.retries)
	st := cache.Stats()
	hits := st.Hits() - before.Hits()
	layers["ware.hit_rate"] = ratio(float64(hits), float64(hits+st.Misses-before.Misses))
	layers["ware.evictions"] = float64(st.Evictions - before.Evictions)
	layers["ware.bytes_saved_per_row"] = ratio(float64(st.BytesSaved-before.BytesSaved), float64(r.rows))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runEpoch is one full session over the sealed table, checked against
// the expected digest. It returns the lease->ack time of each split.
func (e *trainEnv) runEpoch(o *oracle, want *tensor.ContentSum, tenant string, workers int, cache *ware.Cache, counters *readCounters) ([]float64, error) {
	start := time.Now()
	s, err := startSession(e.wh, e.spec, tenant, workers, cache)
	if err != nil {
		return nil, err
	}
	got := tensor.NewContentSum()
	if err := s.drain(got); err != nil {
		s.stop()
		return nil, err
	}
	if err := s.finish(); err != nil {
		return nil, err
	}
	o.checkDigest(tenant+" epoch", got, want)
	if counters != nil {
		counters.addSession(s, time.Since(start))
	}
	return s.heldMs(), nil
}

// runTrain is both training workloads; they differ in cache size
// relative to the table, in who fills the cache, and in tenancy.
func runTrain(cfg config, warm bool) (*outcome, error) {
	shape := trainShapeFor(cfg)
	out := newOutcome()
	want, err := wantEpoch(cfg.seed, shape, sessionSpec(trainTable, false, shape.batchSize))
	if err != nil {
		return nil, err
	}

	// train_cold: two workers scan a table four times the cache, so LRU
	// evicts every ware before its next use. train_shared_warm: the cache
	// holds the table four times over and is filled during set-up, and
	// three tenants with the same projection and plan take turns.
	tenants, workers, epochs := []string{"cold"}, 2, shape.coldEpochs
	if warm {
		tenants, workers, epochs = []string{"tenant-a", "tenant-b", "tenant-c"}, 1, shape.warmEpochs
	}
	var env *trainEnv
	var cache *ware.Cache
	err = out.setUp(cfg, func() error {
		if env, err = buildTrainEnv(cfg.seed, shape); err != nil {
			return err
		}
		capacity, warmer := env.decodedBytes/4, tenants[0]
		if warm {
			capacity, warmer = env.decodedBytes*4, "warmer"
		}
		cache = ware.NewCache(capacity)
		_, err := env.runEpoch(out.oracle, want, warmer, workers, cache, nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	var counters readCounters
	cacheBefore := cache.Stats()
	epoch := 0
	pass := func() (passResult, error) {
		var held []float64
		start := readUsage()
		for i := 0; i < epochs; i++ {
			h, err := env.runEpoch(out.oracle, want, tenants[epoch%len(tenants)], workers, cache, &counters)
			if err != nil {
				return passResult{}, err
			}
			held = append(held, h...)
			epoch++
		}
		c := readUsage().since(start, int64(epochs)*shape.rows())
		return passResult{cost: c, freshMs: median(held)}, nil
	}
	passes, window, err := timedPasses(cfg, pass)
	if err != nil {
		return nil, err
	}
	out.reportPasses(passes, float64(env.cluster.LogicalBytes())/float64(shape.rows()))
	out.reportProcess(window)
	counters.report(out.layers, cache, cacheBefore)
	if cfg.trace {
		// The re-play's wire probe polls FetchBatch on one goroutine while
		// the server answers on another, so it needs both Ps whatever the
		// window ran on.
		runtime.GOMAXPROCS(hostProcs)
		if err := traceTrain(cfg, out, env, cache, want, warm); err != nil {
			return nil, err
		}
	}
	return out, nil
}
