package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"dsi/internal/dpp"
	"dsi/internal/dwrf"
	"dsi/internal/schema"
	"dsi/internal/tectonic"
	"dsi/internal/trainer"
	"dsi/internal/transforms"
	"dsi/internal/warehouse"
)

func init() {
	register("scaling", "Closed-loop elastic scaling vs a fixed pool under a trainer-speed shift (§3.2.1)", runScaling)
}

// The §3.2.1 headline, reproduced end to end: the Master "auto-scales
// the worker pool to eliminate data stalls". Both runs drive the same
// session — the one session of a Service — through the Orchestrator and
// an identical trainer schedule —
// warm up fast, slow down mid-session, then demand tensors at full
// speed — differing only in the scaling bounds. The fixed run pins the
// pool at the minimum; the elastic run may grow. When the trainer's
// demand spikes after the lull, the scaled-up pool answers from more
// workers and more aggregate buffered inventory, and the measured stall
// rate of the post-shift phase drops.
//
// The experiment is sized so the effect is robust on a single-core host
// (where extra workers add buffered inventory but no parallel CPU
// supply) and only grows on multi-core hosts (where they add both).

const (
	scalingRowsPerPart = 2048
	scalingPartitions  = 2
	scalingBatch       = 16
	scalingBufferDepth = 24
	scalingMaxWorkers  = 3
	scalingWarmupSteps = 64 // fast steps that starve the pool into scaling up
	scalingSlowSteps   = 32 // slow steps that let buffers fill pool-wide
	scalingSlowStep    = 2 * time.Millisecond
)

// scalingOutcome captures one orchestrated run.
type scalingOutcome struct {
	// stallPerBatch is the time the trainer spent waiting inside
	// Client.Next per delivered batch during the post-shift fast phase
	// (its StallTime delta over its steps).
	stallPerBatch time.Duration
	peak          int
	rows          int64
	batches       int
}

// buildScalingFixture writes a small flattened two-partition table
// (dense features 1-4, sparse 5-8) sized for the elastic session, and
// reports the rows written. Reduced-scale runs (-short) shrink the row
// count through buildRowScale like every other dataset build; the
// stall-shape assertions only run at full scale.
func buildScalingFixture() (*warehouse.Warehouse, dpp.SessionSpec, int64, error) {
	rowsPerPart := scalingRowsPerPart
	buildScaleMu.Lock()
	rowScale := buildRowScale
	buildScaleMu.Unlock()
	if rowScale != 1 {
		rowsPerPart = int(float64(rowsPerPart) * rowScale)
		if rowsPerPart < 256 {
			rowsPerPart = 256
		}
	}
	cluster, err := tectonic.NewCluster(tectonic.Options{Nodes: 4, Replication: 2, ChunkSize: 1 << 20})
	if err != nil {
		return nil, dpp.SessionSpec{}, 0, err
	}
	wh := warehouse.New(cluster)
	ts := schema.NewTableSchema("elastic")
	for i := 1; i <= 4; i++ {
		if err := ts.AddColumn(schema.Column{ID: schema.FeatureID(i), Kind: schema.Dense, Name: fmt.Sprintf("d%d", i)}); err != nil {
			return nil, dpp.SessionSpec{}, 0, err
		}
	}
	for i := 5; i <= 8; i++ {
		if err := ts.AddColumn(schema.Column{ID: schema.FeatureID(i), Kind: schema.Sparse, Name: fmt.Sprintf("s%d", i)}); err != nil {
			return nil, dpp.SessionSpec{}, 0, err
		}
	}
	tbl, err := wh.CreateTable("elastic", ts, dwrf.WriterOptions{Flatten: true, RowsPerStripe: 32})
	if err != nil {
		return nil, dpp.SessionSpec{}, 0, err
	}
	rng := rand.New(rand.NewSource(17))
	for _, key := range []string{"p1", "p2"} {
		pw, err := tbl.NewPartition(key)
		if err != nil {
			return nil, dpp.SessionSpec{}, 0, err
		}
		for i := 0; i < rowsPerPart; i++ {
			s := schema.NewSample()
			s.Label = float32(rng.Intn(2))
			for id := schema.FeatureID(1); id <= 4; id++ {
				s.DenseFeatures[id] = rng.Float32()
			}
			for id := schema.FeatureID(5); id <= 8; id++ {
				n := 8 + rng.Intn(17)
				vals := make([]int64, n)
				for j := range vals {
					vals[j] = rng.Int63n(1 << 20)
				}
				s.SparseFeatures[id] = vals
			}
			if err := pw.WriteRow(s); err != nil {
				return nil, dpp.SessionSpec{}, 0, err
			}
		}
		if err := pw.Close(); err != nil {
			return nil, dpp.SessionSpec{}, 0, err
		}
	}
	// The transform graph is deliberately heavy (feature crosses and
	// n-grams on every sparse input) so a single worker's supply falls
	// short of a full-speed trainer's demand — the §3.2.1 situation the
	// auto-scaler exists to fix. With cheap transforms one worker keeps
	// up and there is no stall to eliminate; the compiled-plan engine
	// (transforms.Plan + the column arena) made the original graph
	// exactly that cheap, so the crosses are wider and the n-gram
	// chains deeper than they were under the interpreter.
	spec := dpp.SessionSpec{
		Table:    "elastic",
		Features: []schema.FeatureID{1, 2, 5, 6, 7, 8},
		Ops: []transforms.Op{
			&transforms.Cartesian{A: 5, B: 6, Out: 100, MaxOutput: 448},
			&transforms.Cartesian{A: 7, B: 8, Out: 101, MaxOutput: 448},
			&transforms.NGram{In: 100, Out: 102, N: 3},
			&transforms.NGram{In: 101, Out: 103, N: 2},
			&transforms.NGram{In: 102, Out: 108, N: 2},
			&transforms.SigridHash{In: 102, Out: 104, Salt: 1, MaxValue: 1 << 16},
			&transforms.SigridHash{In: 103, Out: 105, Salt: 2, MaxValue: 1 << 16},
			&transforms.SigridHash{In: 5, Out: 106, Salt: 3, MaxValue: 1 << 16},
			&transforms.SigridHash{In: 108, Out: 109, Salt: 4, MaxValue: 1 << 16},
			&transforms.Logit{In: 1, Out: 107},
		},
		DenseOut:    []schema.FeatureID{107, 2},
		SparseOut:   []schema.FeatureID{104, 105, 106, 6},
		BatchSize:   scalingBatch,
		BufferDepth: scalingBufferDepth,
		Read:        dwrf.ReadOptions{CoalesceBytes: dwrf.DefaultCoalesceBytes, Flatmap: true},
		// Lean per-worker pipelines: the experiment scales the pool, not
		// the stages, so per-worker goroutine overhead stays flat as the
		// pool grows.
		Pipeline: dpp.PipelineOptions{Prefetchers: 1, TransformParallelism: 1, PrefetchDepth: 2},
	}
	return wh, spec, int64(scalingPartitions * rowsPerPart), nil
}

// runElasticSession drives one orchestrated session with the shared
// trainer schedule and measures the post-shift stall rate.
func runElasticSession(minWorkers, maxWorkers int) (scalingOutcome, error) {
	wh, spec, wantRows, err := buildScalingFixture()
	if err != nil {
		return scalingOutcome{}, err
	}
	const sessionID = "elastic"
	svc := dpp.NewService(wh)
	if err := svc.CreateSession(sessionID, spec); err != nil {
		return scalingOutcome{}, err
	}
	launcher := &dpp.FleetLauncher{
		Service:        svc,
		WH:             wh,
		HeartbeatEvery: time.Millisecond,
		Tune:           func(w *dpp.Worker) { w.HeartbeatEvery = time.Millisecond },
		// One tenant reads every stripe once: a batch cache has nothing
		// to serve and would only add its bookkeeping to the measurement.
		CacheBytes: -1,
	}
	scaler := dpp.NewAutoScaler(minWorkers, maxWorkers)
	// Starvation threshold proportional to the buffer: a quarter-full
	// buffer is already at risk. On a single-core host, burst scheduling
	// can keep the instantaneous minimum a few batches above empty even
	// while the trainer spends most of its time waiting, so the absolute
	// near-zero default would under-react.
	scaler.LowBuffer = scalingBufferDepth / 4
	// The experiment isolates the scale-up response to a demand spike;
	// disabling the drain path keeps the warmup's scaled pool intact
	// through the slowdown (the e2e test covers drain-back-down).
	scaler.HighBuffer = 1 << 30
	o := dpp.NewOrchestrator(svc, launcher, scaler)
	o.ScaleInterval = time.Millisecond
	o.ScaleUpCooldown = time.Millisecond
	stop := make(chan struct{})
	runDone := make(chan error, 1)
	go func() { runDone <- o.Run(stop) }()
	defer func() {
		close(stop)
		<-runDone
	}()

	client, err := dpp.NewTenantClient(svc, sessionID, launcher.SessionDialer(sessionID), 0, 0)
	if err != nil {
		return scalingOutcome{}, err
	}
	client.RefreshEvery = 500 * time.Microsecond
	tr := trainer.NewTrainer(client)

	// Warmup: full-speed demand starves buffers; the elastic run scales
	// up (the fixed run is already at its bound).
	if _, err := tr.Run(scalingWarmupSteps); err != nil {
		return scalingOutcome{}, err
	}
	// Mid-session shift 1: the trainer slows; every worker's buffer
	// fills (the elastic pool banks MaxWorkers× the fixed pool's
	// inventory).
	tr.StepTime = scalingSlowStep
	if _, err := tr.Run(scalingWarmupSteps + scalingSlowSteps); err != nil {
		return scalingOutcome{}, err
	}
	// Mid-session shift 2: demand spikes back to full speed; measure
	// data-stall time from here to session end.
	stepsBefore, stallBefore := tr.StepsDone, tr.StallTime
	tr.StepTime = 0
	if _, err := tr.Run(0); err != nil {
		return scalingOutcome{}, err
	}

	steps := tr.StepsDone - stepsBefore
	out := scalingOutcome{
		peak:    o.Status().Peak,
		rows:    tr.RowsConsumed,
		batches: tr.StepsDone,
	}
	if steps > 0 {
		out.stallPerBatch = (tr.StallTime - stallBefore) / time.Duration(steps)
	}
	if out.rows != wantRows {
		return out, fmt.Errorf("experiments: elastic session delivered %d rows, want %d (exactly-once violated)", out.rows, wantRows)
	}
	return out, nil
}

func runScaling() (Result, error) {
	res := Result{ID: "scaling", Title: Title("scaling")}
	fixed, err := runElasticSession(1, 1)
	if err != nil {
		return res, err
	}
	auto, err := runElasticSession(1, scalingMaxWorkers)
	if err != nil {
		return res, err
	}
	reduction := "n/a"
	if auto.stallPerBatch > 0 {
		reduction = fmtX(float64(fixed.stallPerBatch) / float64(auto.stallPerBatch))
	}
	res.Rows = append(res.Rows,
		Row{
			Label:    "post-shift stall per batch, fixed minimal pool",
			Paper:    "-",
			Measured: fmt.Sprintf("%dµs", fixed.stallPerBatch.Microseconds()),
			Note:     fmt.Sprintf("pool pinned at %d worker", fixed.peak),
		},
		Row{
			Label:    "post-shift stall per batch, auto-scaled pool",
			Paper:    "→ 0",
			Measured: fmt.Sprintf("%dµs", auto.stallPerBatch.Microseconds()),
			Note:     fmt.Sprintf("pool grew to %d workers", auto.peak),
		},
		Row{
			Label:    "stall reduction from closing the loop",
			Paper:    "eliminates stalls",
			Measured: reduction,
			Note:     "same session, same trainer schedule",
		},
		Row{
			Label:    "closed loop reduces stalls",
			Paper:    "true",
			Measured: fmt.Sprint(auto.stallPerBatch < fixed.stallPerBatch),
		},
		Row{
			Label:    "rows delivered exactly once (both runs)",
			Paper:    "-",
			Measured: fmt.Sprintf("%d / %d", fixed.rows, auto.rows),
		},
	)
	return res, nil
}
