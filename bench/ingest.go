package main

import (
	"fmt"
	"time"

	"dsi/internal/datagen"
	"dsi/internal/dwrf"
	"dsi/internal/etl"
	"dsi/internal/logdevice"
	"dsi/internal/schema"
	"dsi/internal/scribe"
	"dsi/internal/tectonic"
	"dsi/internal/tensor"
	"dsi/internal/warehouse"
)

const ingestModel = "rm1"

// ingestShape sizes one ingestion environment.
type ingestShape struct {
	requests      int
	partitionRows int
	stripeRows    int
}

// ingestWriteShape is one ingest_write pass, and its traced re-play.
func ingestWriteShape(cfg config) ingestShape {
	if cfg.reduced {
		return ingestShape{requests: 64, partitionRows: 32, stripeRows: 32}
	}
	return ingestShape{requests: 1024, partitionRows: 512, stripeRows: 128}
}

// ingestEnv is the write path end to end: a serving simulator logging
// through a Scribe daemon into LogDevice, and an ETL pipeline joining
// the two categories into sealed DWRF partitions of an unbounded table.
type ingestEnv struct {
	spec    datagen.DatasetSpec
	store   *logdevice.Store
	bus     *scribe.Bus
	daemon  *scribe.Daemon
	sim     *datagen.ServingSimulator
	cluster *tectonic.Cluster
	wh      *warehouse.Warehouse
	table   *warehouse.Table
	pipe    *etl.Pipeline
}

func newIngestEnv(seed int64, shape ingestShape) (*ingestEnv, error) {
	e := &ingestEnv{spec: dataSpec(), store: logdevice.NewStore()}
	e.bus = scribe.NewBus(e.store)
	e.daemon = scribe.NewDaemon("web-1", e.bus)
	e.sim = datagen.NewServingSimulator(ingestModel, datagen.NewGenerator(e.spec, seed), e.daemon)
	var err error
	if e.cluster, e.wh, err = newWarehouse(); err != nil {
		return nil, err
	}
	e.table, err = e.wh.CreateUnboundedTable(ingestModel, e.spec.BuildSchema(),
		dwrf.WriterOptions{Flatten: true, RowsPerStripe: shape.stripeRows})
	if err != nil {
		return nil, fmt.Errorf("create table: %w", err)
	}
	cursors, err := etl.NewCursorStore(e.store, "etl/"+ingestModel+"/cursors")
	if err != nil {
		return nil, fmt.Errorf("cursor store: %w", err)
	}
	e.pipe = &etl.Pipeline{
		Joiner:        etl.NewJoiner(ingestModel, e.bus, nil),
		Table:         e.table,
		Cursors:       cursors,
		PartitionRows: shape.partitionRows,
	}
	return e, nil
}

// tableDigest reads every sealed partition back and digests every stored
// feature. It is the write path's output check and is never timed.
func (e *ingestEnv) tableDigest() (*tensor.ContentSum, error) {
	dense := e.table.Schema.IDsOfKind(schema.Dense)
	sparse := e.table.Schema.IDsOfKind(schema.Sparse)
	splits, err := e.table.Splits(nil)
	if err != nil {
		return nil, fmt.Errorf("splits: %w", err)
	}
	sum := tensor.NewContentSum()
	opts := dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true}
	for _, sp := range splits {
		batch, _, err := e.wh.ReadSplitBatchCached(sp, nil, opts)
		if err != nil {
			return nil, fmt.Errorf("read back %s/%d: %w", sp.Partition, sp.Stripe, err)
		}
		t, err := tensor.Materialize(batch, dense, sparse)
		if err != nil {
			return nil, err
		}
		sum.AddBatch(t)
	}
	return sum, nil
}

// checkWritePath holds the write path's own counters against the number
// of requests served, and reports its fault counters (all 0 fault-free).
func (e *ingestEnv) checkWritePath(o *oracle, requests int64) {
	o.checkCount("etl.RowsWritten", e.pipe.RowsWritten.Value(), requests)
	o.checkCount("etl.Joiner.Joined", e.pipe.Joiner.Joined.Value(), requests)
	o.checkCount("etl.Joiner.Expired", e.pipe.Joiner.Expired.Value(), 0)
	o.checkCount("etl.Joiner.Poisoned", e.pipe.Joiner.Poisoned.Value(), 0)
	o.checkCount("scribe.Shed", e.daemon.Shed.Value(), 0)
	o.checkCount("scribe.Dropped", e.daemon.Dropped.Value(), 0)
}

func (e *ingestEnv) faultCounters(into map[string]float64) {
	into["scribe.shed"] += float64(e.daemon.Shed.Value())
	into["scribe.dropped"] += float64(e.daemon.Dropped.Value())
	into["etl.poisoned"] += float64(e.pipe.Joiner.Poisoned.Value())
	ws := e.pipe.WriterStats()
	into["etl.write_retries"] += float64(ws.Retries + e.pipe.PartitionsReproduced.Value())
	into["tectonic.read_retries"] += float64(e.cluster.FaultCounters().Retries)
}

// runIngestWrite is the ingest_write workload: closed loop, write path
// only. One pass builds a fresh environment, publishes every request,
// closes the stream and runs the ETL until the last partition is sealed
// and visible.
func runIngestWrite(cfg config) (*outcome, error) {
	shape := ingestWriteShape(cfg)
	out := newOutcome()
	want := storedDigest(servedSamples(dataSpec(), cfg.seed, shape.requests))

	var storedBytes, storedRows int64
	pass := func() (passResult, error) {
		env, err := newIngestEnv(cfg.seed, shape)
		if err != nil {
			return passResult{}, err
		}
		env.sim.Now = func() int64 { return time.Now().UnixNano() }
		start := readUsage()
		if err := env.sim.ServeRequests(shape.requests); err != nil {
			return passResult{}, fmt.Errorf("serve: %w", err)
		}
		if err := env.sim.Close(env.bus); err != nil {
			return passResult{}, fmt.Errorf("close stream: %w", err)
		}
		if err := env.pipe.Run(nil); err != nil {
			return passResult{}, fmt.Errorf("etl: %w", err)
		}
		c := readUsage().since(start, env.pipe.RowsWritten.Value())

		got, err := env.tableDigest()
		if err != nil {
			return passResult{}, err
		}
		out.oracle.checkDigest("sealed table", got, want)
		env.checkWritePath(out.oracle, int64(shape.requests))
		env.faultCounters(out.layers)
		storedBytes += env.cluster.LogicalBytes()
		storedRows += got.Rows
		// The batch's time to readable: first request published to last
		// partition visible, which is the whole pass.
		return passResult{cost: c, freshMs: float64(c.wall) / float64(time.Millisecond)}, nil
	}

	if err := out.setUp(cfg, func() error { _, err := pass(); return err }); err != nil {
		return nil, err
	}
	storedBytes, storedRows = 0, 0
	passes, window, err := timedPasses(cfg, pass)
	if err != nil {
		return nil, err
	}
	out.reportPasses(passes, float64(storedBytes)/float64(storedRows))
	out.reportProcess(window)
	if cfg.trace {
		if err := traceIngestWrite(cfg, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
